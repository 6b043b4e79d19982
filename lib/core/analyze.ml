open Ita_mc

type method_ =
  | Exhaustive
  | Binary of { hi : int }
  | Structured_testing of {
      order : Reach.order;
      budget : Reach.budget;
      start : int;
      step : int;
    }

type outcome =
  | Exact_wcrt of int
  | Wcrt_lower_bound of int
  | No_response

type result = {
  outcome : outcome;
  explored : int;
  elapsed : float;
  uncontended_us : int;
  certified : (Ita_cert.Cert.stats, Ita_cert.Cert.failure) Stdlib.result option;
}

let wcrt ?(method_ = Exhaustive) ?order ?domains ?(certify = false) ?cert_out
    sys ~scenario ~requirement =
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
  (* Certification only applies to the exhaustive sup-query: that is
     the one method whose verdict is an invariant rather than a bound
     from an incomplete search. *)
  let want_cert = certify || cert_out <> None in
  let snap_ref = ref None in
  let snap =
    if want_cert then Some (fun s -> snap_ref := Some s) else None
  in
  let qcert = ref None in
  let outcome, explored, elapsed =
    match method_ with
    | Exhaustive -> (
        match
          Wcrt.sup ?order ?domains ?snap
            ~initial_ceiling:(max 4 (4 * uncontended_us))
            gen.Gen.net ~at ~clock
        with
        | Wcrt.Sup { value; kind; stats } ->
            (match !snap_ref with
            | Some snapshot ->
                qcert :=
                  Some
                    (Cert_emit.of_snapshot ~index:0
                       ~verdict:(Ita_cert.Cert.Sup { clock; value; kind })
                       snapshot)
            | None -> ());
            (Exact_wcrt value, stats.Reach.explored, stats.Reach.elapsed)
        | Wcrt.Goal_unreachable stats ->
            (No_response, stats.Reach.explored, stats.Reach.elapsed)
        | Wcrt.Sup_budget_exhausted { observed; stats } ->
            ( (match observed with
              | Some v -> Wcrt_lower_bound v
              | None -> No_response),
              stats.Reach.explored,
              stats.Reach.elapsed )
        | Wcrt.Sup_unbounded { ceiling; stats } ->
            (Wcrt_lower_bound ceiling, stats.Reach.explored, stats.Reach.elapsed)
        )
    | Binary { hi } -> (
        let r =
          Wcrt.binary_search ?order ?domains ~hi gen.Gen.net ~at ~clock
        in
        match (r.Wcrt.lower, r.Wcrt.upper) with
        | Some l, Some u when u = l + 1 ->
            (Exact_wcrt l, r.Wcrt.total_explored, r.Wcrt.total_elapsed)
        | Some l, _ ->
            (Wcrt_lower_bound l, r.Wcrt.total_explored, r.Wcrt.total_elapsed)
        | None, Some _ -> (No_response, r.Wcrt.total_explored, r.Wcrt.total_elapsed)
        | None, None -> (No_response, r.Wcrt.total_explored, r.Wcrt.total_elapsed)
        )
    | Structured_testing { order; budget; start; step } -> (
        let r =
          Wcrt.probe_lower ~order ?domains gen.Gen.net ~at
            ~clock ~budget ~start ~step
        in
        match r.Wcrt.lower with
        | Some l -> (Wcrt_lower_bound l, r.Wcrt.total_explored, r.Wcrt.total_elapsed)
        | None -> (No_response, r.Wcrt.total_explored, r.Wcrt.total_elapsed))
  in
  let certified =
    match !qcert with
    | None -> None
    | Some qc ->
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
  in
  { outcome; explored; elapsed; uncontended_us; certified }

let pp_outcome ppf = function
  | Exact_wcrt us -> Units.pp_ms ppf us
  | Wcrt_lower_bound us -> Format.fprintf ppf "> %a" Units.pp_ms us
  | No_response -> Format.pp_print_string ppf "-"

type verdict = Met | Violated | Unknown

type budget_report = {
  scenario_name : string;
  requirement_name : string;
  budget_us : int;
  wcrt : outcome;
  verdict : verdict;
}

let check_budgets ?method_ ?order ?domains (sys : Sysmodel.t) =
  List.concat_map
    (fun (s : Scenario.t) ->
      List.filter_map
        (fun (req : Scenario.requirement) ->
          match req.Scenario.budget_us with
          | None -> None
          | Some budget ->
              let r =
                wcrt ?method_ ?order ?domains sys
                  ~scenario:s.Scenario.name
                  ~requirement:req.Scenario.req_name
              in
              let verdict =
                match r.outcome with
                | Exact_wcrt v -> if v < budget then Met else Violated
                | Wcrt_lower_bound v ->
                    if v >= budget then Violated else Unknown
                | No_response -> Unknown
              in
              Some
                {
                  scenario_name = s.Scenario.name;
                  requirement_name = req.Scenario.req_name;
                  budget_us = budget;
                  wcrt = r.outcome;
                  verdict;
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
