open Ita_core

type status =
  | Done of Job.result
  | Crashed of string
  | Timed_out of float
  | Rejected of string
type cell = { technique : Job.technique; status : status; cached : bool }
type row = { candidate : Space.candidate; cells : cell list }

type report = {
  space_name : string;
  scenario : string;
  requirement : string;
  deadline_us : int option;
  techniques : Job.technique list;
  rows : row list;
  cache_hits : int;
  cache_misses : int;
  executed : int;
  failed : int;
  rejected : int;
  workers : int;
  wall_s : float;
}

let run ?jobs ?timeout_s ?cache ?(budget = Job.default_budget) ?inject_crash
    space ~techniques ~scenario ~requirement =
  if techniques = [] then invalid_arg "Explore.run: no techniques";
  let workers =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  let deadline_us =
    (Scenario.requirement
       (Sysmodel.scenario space.Space.base scenario)
       requirement)
      .Scenario.budget_us
  in
  let t0 = Unix.gettimeofday () in
  let cands = Space.candidates space in
  (* lint pre-flight: a candidate whose generated network carries an
     error-severity finding would only waste worker time (or worse,
     crash mid-exploration on an out-of-range update), so screen it
     out before any job is scheduled.  The semantic passes reject at
     warning too: a dead edge or a write-write sync race on a
     *generated* network means the candidate's model is broken at the
     generator level, not merely suspicious. *)
  let rejection (c : Space.candidate) =
    match Gen.generate c.Space.sys with
    | exception e -> Some (Printexc.to_string e)
    | gen -> (
        match
          List.filter
            (fun (d : Ita_analysis.Diagnostic.t) ->
              let module D = Ita_analysis.Diagnostic in
              d.D.severity = D.Error
              || (D.compare_severity d.D.severity D.Warning >= 0
                 && List.mem d.D.pass [ D.Dead_edge; D.Sync_write_race ]))
            (Ita_analysis.Lint.run gen.Gen.net)
        with
        | [] -> None
        | d :: _ ->
            Some
              (Format.asprintf "%a" (Ita_analysis.Diagnostic.pp gen.Gen.net) d))
  in
  let rejections =
    List.filter_map
      (fun (c : Space.candidate) ->
        Option.map (fun m -> (c.Space.index, m)) (rejection c))
      cands
  in
  let rejected_msg (c : Space.candidate) = List.assoc_opt c.Space.index rejections in
  let runnable = List.filter (fun c -> rejected_msg c = None) cands in
  (* flat job list, candidate-major; probe the cache up front *)
  let entries =
    List.concat_map
      (fun (c : Space.candidate) ->
        List.map
          (fun tech ->
            let spec =
              {
                Job.sys = c.Space.sys;
                technique = tech;
                scenario;
                requirement;
                budget;
              }
            in
            let hit =
              match cache with
              | None -> None
              | Some ca -> Cache.find ca (Cache.job_key spec)
            in
            (c, tech, spec, hit))
          techniques)
      runnable
  in
  let entries =
    List.mapi (fun flat (c, tech, spec, hit) -> (flat, c, tech, spec, hit))
      entries
  in
  let to_run =
    List.filter_map
      (fun (flat, _, _, spec, hit) ->
        match hit with Some _ -> None | None -> Some (flat, spec))
      entries
  in
  let worker (flat, spec) =
    (* fault injection: die without a word, like a segfaulting or
       OOM-killed worker would *)
    if inject_crash = Some flat then Unix._exit 66;
    Job.run spec
  in
  let to_run_arr = Array.of_list to_run in
  let on_result i outcome =
    (* persist the moment a job settles: a sweep killed halfway keeps
       everything already computed *)
    match (outcome, cache) with
    | Pool.Done r, Some ca ->
        let _, spec = to_run_arr.(i) in
        Cache.store ca (Cache.job_key spec) r
    | _ -> ()
  in
  let outcomes =
    Pool.map ~jobs:workers ?timeout_s ~on_result worker to_run_arr
  in
  let by_flat = Hashtbl.create 64 in
  List.iteri
    (fun i (flat, _) ->
      let status =
        match outcomes.(i) with
        | Pool.Done r -> Done r
        | Pool.Crashed msg -> Crashed msg
        | Pool.Timed_out s -> Timed_out s
      in
      Hashtbl.replace by_flat flat status)
    to_run;
  let cells_of (c : Space.candidate) =
    match rejected_msg c with
    | Some msg ->
        List.map
          (fun tech -> { technique = tech; status = Rejected msg; cached = false })
          techniques
    | None ->
        List.filter_map
          (fun (flat, c', tech, _, hit) ->
            if c'.Space.index <> c.Space.index then None
            else
              Some
                (match hit with
                | Some r -> { technique = tech; status = Done r; cached = true }
                | None ->
                    {
                      technique = tech;
                      status = Hashtbl.find by_flat flat;
                      cached = false;
                    }))
          entries
  in
  let rows = List.map (fun c -> { candidate = c; cells = cells_of c }) cands in
  let failed =
    List.fold_left
      (fun acc r ->
        acc
        + List.length
            (List.filter
               (fun cell ->
                 match cell.status with
                 | Crashed _ | Timed_out _ -> true
                 | Done _ | Rejected _ -> false)
               r.cells))
      0 rows
  in
  let hits = List.length entries - List.length to_run in
  {
    space_name = space.Space.space_name;
    scenario;
    requirement;
    deadline_us;
    techniques;
    rows;
    cache_hits = hits;
    cache_misses = (if cache = None then 0 else List.length to_run);
    executed = List.length to_run;
    failed;
    rejected = List.length rejections;
    workers;
    wall_s = Unix.gettimeofday () -. t0;
  }

(* One fold over a row's finished cells: its first exact value, its
   tightest upper bound and its largest lower bound *)
let figures row =
  let tighter pick v = function None -> Some v | Some w -> Some (pick v w) in
  List.fold_left
    (fun ((exact, upper, lower) as acc) c ->
      match c.status with
      | Done { Job.measure = Job.Exact v; _ } when exact = None ->
          (Some v, upper, lower)
      | Done { Job.measure = Job.Upper v; _ } ->
          (exact, tighter min v upper, lower)
      | Done { Job.measure = Job.Lower v; _ } ->
          (exact, upper, tighter max v lower)
      | _ -> acc)
    (None, None, None) row.cells

let row_wcrt_us row =
  match figures row with
  | Some v, _, _ | None, Some v, _ | None, None, Some v -> Some v
  | None, None, None -> None

(* an unbounded response misses every deadline, as in
   [Analyze.outcome_verdict] *)
let unbounded c =
  match c.status with
  | Done { Job.measure = Job.Unbounded; _ } -> true
  | _ -> false

let feasibility ~deadline_us row =
  match deadline_us with
  | None -> `Unknown
  | Some _ when List.exists unbounded row.cells -> `Infeasible
  | Some deadline_us -> (
      let exact, upper, lower = figures row in
      match Analyze.deadline_verdict ~deadline_us ?exact ?upper ?lower () with
      | Analyze.Met -> `Feasible
      | Analyze.Violated -> `Infeasible
      | Analyze.Unknown -> `Unknown)

let frontier report =
  report.rows
  |> List.filter (fun r -> row_wcrt_us r <> None)
  |> Pareto.frontier ~metrics:(fun r ->
         ( float_of_int (Option.get (row_wcrt_us r)),
           Space.cost r.candidate ))

let pp ppf report =
  let n_cands = List.length report.rows in
  let n_tech = List.length report.techniques in
  Format.fprintf ppf "@[<v>== design-space exploration: %s :: %s/%s"
    report.space_name report.scenario report.requirement;
  (match report.deadline_us with
  | Some d -> Format.fprintf ppf " (deadline %a ms)" Units.pp_ms d
  | None -> ());
  Format.fprintf ppf " ==@,";
  Format.fprintf ppf
    "%d candidates x %d techniques = %d jobs: %d cached, %d executed (%d \
     failed) on %d forked workers in %.2fs"
    n_cands n_tech (n_cands * n_tech) report.cache_hits report.executed
    report.failed report.workers report.wall_s;
  if report.rejected > 0 then
    Format.fprintf ppf "@,%d candidate%s rejected by the lint pre-flight"
      report.rejected
      (if report.rejected = 1 then "" else "s");
  if report.executed > 0 && report.wall_s > 0.0 then
    Format.fprintf ppf " (%.2f jobs/s)"
      (float_of_int report.executed /. report.wall_s);
  Format.fprintf ppf "@,@,";
  Format.fprintf ppf "%-4s %-36s %8s" "#" "candidate" "cost";
  List.iter
    (fun t -> Format.fprintf ppf " %12s" (Job.technique_name t))
    report.techniques;
  Format.fprintf ppf " %10s@," "verdict";
  List.iter
    (fun row ->
      Format.fprintf ppf "%-4d %-36s %8.1f" row.candidate.Space.index
        (Space.label row.candidate)
        (Space.cost row.candidate);
      List.iter
        (fun cell ->
          let text =
            match cell.status with
            | Done r ->
                Format.asprintf "%a%s" Job.pp_measure r.Job.measure
                  (if cell.cached then "*" else "")
            | Crashed _ -> "crash"
            | Timed_out _ -> "timeout"
            | Rejected _ -> "rejected"
          in
          Format.fprintf ppf " %12s" text)
        row.cells;
      let verdict =
        match feasibility ~deadline_us:report.deadline_us row with
        | `Feasible -> "feasible"
        | `Infeasible -> "INFEASIBLE"
        | `Unknown -> "?"
      in
      Format.fprintf ppf " %10s@," verdict)
    report.rows;
  Format.fprintf ppf "@,(* = cached result)@,";
  let front = frontier report in
  Format.fprintf ppf "@,Pareto frontier over (wcrt, cost):@,";
  List.iter
    (fun row ->
      Format.fprintf ppf "  #%-3d %-36s wcrt %a ms, cost %.1f@,"
        row.candidate.Space.index
        (Space.label row.candidate)
        Units.pp_ms
        (Option.get (row_wcrt_us row))
        (Space.cost row.candidate))
    front;
  Format.fprintf ppf "@]"
