open Ita_mc

type dimension = States | Seconds

type outcome =
  | Exact_wcrt of int
  | Wcrt_lower_bound of { value : int; exhausted : dimension }
  | Unobserved of dimension
  | No_response
  | Unbounded

type result = {
  outcome : outcome;
  explored : int;
  elapsed : float;
  uncontended_us : int;
  certified : (Ita_cert.Cert.stats, Ita_cert.Cert.failure) Stdlib.result option;
}

let wcrt ?(order = Reach.Bfs) ?(budget = Reach.no_budget) ?domains
    ?(certify = false) ?cert_out sys ~scenario ~requirement =
  let s = Sysmodel.scenario sys scenario in
  let req = Scenario.requirement s requirement in
  let gen = Gen.generate ~measure:(scenario, req) sys in
  let observer =
    match gen.Gen.observer with Some o -> o | None -> assert false
  in
  let at = observer.Gen.seen and clock = observer.Gen.obs_clock in
  let uncontended_us =
    Sysmodel.uncontended_us sys s ~from_step:req.Scenario.from_step
      ~to_step:req.Scenario.to_step
  in
  let want_cert = certify || cert_out <> None in
  let snap_ref = ref None in
  let snap =
    if want_cert then Some (fun s -> snap_ref := Some s) else None
  in
  let sup order =
    Wcrt.sup ~order ~budget ?domains ?snap gen.Gen.net ~at ~clock
  in
  (* the exhaustive run, then — only if the budget cut it off — the
     paper's structured testing: the same sup-query depth-first *)
  let first = sup order in
  let rerun =
    match first with
    | Wcrt.Sup_budget_exhausted _ when order <> Reach.Dfs ->
        Some (sup Reach.Dfs)
    | _ -> None
  in
  let runs = first :: Option.to_list rerun in
  let last = Option.value rerun ~default:first in
  let stats_of = function
    | Wcrt.Sup { stats; _ }
    | Wcrt.Goal_unreachable stats
    | Wcrt.Sup_budget_exhausted { stats; _ }
    | Wcrt.Sup_unbounded { stats; _ } ->
        stats
  in
  (* [None] sorts below [Some _]: the larger observation of the runs *)
  let observed =
    List.fold_left
      (fun acc -> function
        | Wcrt.Sup_budget_exhausted { observed; _ } -> max acc observed
        | _ -> acc)
      None runs
  in
  let outcome =
    match last with
    | Wcrt.Sup { value; _ } -> Exact_wcrt value
    | Wcrt.Goal_unreachable _ -> No_response
    | Wcrt.Sup_unbounded _ -> Unbounded
    | Wcrt.Sup_budget_exhausted { stats; _ } -> (
        let exhausted =
          match budget.Reach.max_states with
          | Some m when stats.Reach.explored >= m -> States
          | _ -> Seconds
        in
        match observed with
        | Some value -> Wcrt_lower_bound { value; exhausted }
        | None -> Unobserved exhausted)
  in
  let explored, elapsed =
    List.fold_left
      (fun (n, t) r ->
        let st = stats_of r in
        (n + st.Reach.explored, t +. st.Reach.elapsed))
      (0, 0.0) runs
  in
  (* [snap] fires only on a [Sup], so a snapshot is the certifiable
     invariant of the run that completed *)
  let certified =
    match (last, !snap_ref) with
    | Wcrt.Sup { value; kind; _ }, Some snapshot ->
        let qc =
          Cert_emit.of_snapshot ~index:0
            ~verdict:(Ita_cert.Cert.Sup { clock; value; kind })
            snapshot
        in
        (match cert_out with
        | Some path ->
            Ita_cert.Cert.save path (Cert_emit.make gen.Gen.net [ qc ])
        | None -> ());
        if certify then
          Some
            (Ita_cert.Cert.check gen.Gen.net
               ~goal:(Cert_emit.goal_of_query at)
               qc)
        else None
    | _ -> None
  in
  { outcome; explored; elapsed; uncontended_us; certified }

let pp_outcome ppf = function
  | Exact_wcrt us -> Units.pp_ms ppf us
  | Wcrt_lower_bound { value; _ } -> Format.fprintf ppf ">= %a" Units.pp_ms value
  | Unobserved _ -> Format.pp_print_string ppf "?"
  | No_response -> Format.pp_print_string ppf "-"
  | Unbounded -> Format.pp_print_string ppf "unbounded"

type verdict = Met | Violated | Unknown

(* Property 1's strict form, A[] (seen -> y < C): a response time
   meets its deadline iff it is below it *)
let deadline_verdict ~deadline_us ?exact ?upper ?lower () =
  match (exact, upper, lower) with
  | Some v, _, _ -> if v < deadline_us then Met else Violated
  | None, Some u, _ when u < deadline_us -> Met
  | None, _, Some l when l >= deadline_us -> Violated
  | _ -> Unknown

let outcome_verdict ~deadline_us = function
  | Exact_wcrt v -> deadline_verdict ~deadline_us ~exact:v ()
  | Wcrt_lower_bound { value; _ } ->
      deadline_verdict ~deadline_us ~lower:value ()
  | Unbounded -> Violated
  | Unobserved _ | No_response -> Unknown

type budget_report = {
  scenario_name : string;
  requirement_name : string;
  budget_us : int;
  wcrt : outcome;
  verdict : verdict;
}

let check_budgets (sys : Sysmodel.t) =
  List.concat_map
    (fun (s : Scenario.t) ->
      List.filter_map
        (fun (req : Scenario.requirement) ->
          match req.Scenario.budget_us with
          | None -> None
          | Some budget_us ->
              let r =
                wcrt sys ~scenario:s.Scenario.name
                  ~requirement:req.Scenario.req_name
              in
              Some
                {
                  scenario_name = s.Scenario.name;
                  requirement_name = req.Scenario.req_name;
                  budget_us;
                  wcrt = r.outcome;
                  verdict = outcome_verdict ~deadline_us:budget_us r.outcome;
                })
        s.Scenario.requirements)
    sys.Sysmodel.scenarios

let pp_budget_report ppf r =
  Format.fprintf ppf "%s/%s: wcrt %a ms vs budget %a ms -> %s"
    r.scenario_name r.requirement_name pp_outcome r.wcrt Units.pp_ms
    r.budget_us
    (match r.verdict with
    | Met -> "met"
    | Violated -> "VIOLATED"
    | Unknown -> "unknown")
