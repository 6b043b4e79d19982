(* Tests for the design-space exploration subsystem: space
   enumeration, Pareto frontiers, the fork-based worker pool, the
   on-disk result cache, and the sweep driver end to end. *)

open Ita_core
module Space = Ita_dse.Space
module Pareto = Ita_dse.Pareto
module Pool = Ita_dse.Pool
module Job = Ita_dse.Job
module Cache = Ita_dse.Cache
module Explore = Ita_dse.Explore

(* ------------------------------------------------------------------ *)
(* A deterministic one-task system: WCRT = 4 us at 1 MIPS, 2 us at 2.
   The period must dwarf the observer's extrapolation ceiling the way
   the paper's second-scale periods do, or the measured state space
   drags through thousands of cycles before zones collapse.           *)
(* ------------------------------------------------------------------ *)

let mini ?(mips = 1.0) () =
  let cpu =
    Resource.processor "CPU" ~mips ~policy:Resource.Priority_preemptive
  in
  let hi =
    Scenario.make ~name:"Hi"
      ~trigger:(Eventmodel.Periodic { period = 2_000_000; offset = 0 })
      ~band:Scenario.High
      ~steps:
        [ Scenario.Compute { op = "h"; resource = "CPU"; instructions = 4.0 } ]
      ~requirements:
        [
          {
            Scenario.req_name = "R";
            from_step = None;
            to_step = 0;
            budget_us = Some 40;
          };
        ]
  in
  Sysmodel.make ~name:"mini" ~resources:[ cpu ] ~scenarios:[ hi ]
    ~queue_bound:2 ()

let mini_space () =
  Space.make ~name:"mini" ~base:(mini ())
    ~axes:[ Space.mips_axis ~resource:"CPU" [ 1.0; 2.0 ] ]

(* The in-process job tests pin the exploration to the sequential
   engine: OCaml's runtime forbids Unix.fork in a process that has
   ever spawned a domain, so letting TAMC_DOMAINS parallelise these
   would poison the fork-pool tests that run later.  The domain-pool
   suites at the end of this file (which run after every fork) cover
   the parallel paths. *)
let mini_spec ?(technique = Job.Mc) ?(mips = 1.0) () =
  {
    Job.sys = mini ~mips ();
    technique;
    scenario = "Hi";
    requirement = "R";
    budget = { Job.default_budget with Job.mc_domains = Some 1 };
  }

(* ------------------------------------------------------------------ *)
(* Space                                                               *)
(* ------------------------------------------------------------------ *)

let test_space_product () =
  let sp =
    Space.make ~name:"s" ~base:(mini ())
      ~axes:
        [
          Space.mips_axis ~resource:"CPU" [ 1.0; 2.0; 4.0 ];
          Space.queue_bound_axis [ 2; 3 ];
        ]
  in
  Alcotest.(check int) "size = 3*2" 6 (Space.size sp);
  let cands = Space.candidates sp in
  Alcotest.(check int) "enumerated all" 6 (List.length cands);
  (* last axis varies fastest *)
  Alcotest.(check (list string))
    "enumeration order"
    [
      "CPU=1MIPS qbound=2";
      "CPU=1MIPS qbound=3";
      "CPU=2MIPS qbound=2";
      "CPU=2MIPS qbound=3";
      "CPU=4MIPS qbound=2";
      "CPU=4MIPS qbound=3";
    ]
    (List.map Space.label cands);
  List.iteri
    (fun i c -> Alcotest.(check int) "index" i c.Space.index)
    cands

let test_space_transform_applied () =
  let cands = Space.candidates (mini_space ()) in
  (* cost of the CPU-only system is exactly its MIPS, so the transform
     visibly landed in the candidate model *)
  Alcotest.(check (list (float 1e-9)))
    "costs track the axis" [ 1.0; 2.0 ]
    (List.map Space.cost cands)

let test_space_empty_axes () =
  let sp = Space.make ~name:"s" ~base:(mini ()) ~axes:[] in
  Alcotest.(check int) "singleton" 1 (Space.size sp);
  match Space.candidates sp with
  | [ c ] -> Alcotest.(check string) "base label" "(base)" (Space.label c)
  | _ -> Alcotest.fail "empty-axes space must have one candidate"

let test_space_rejects_duplicates () =
  Alcotest.check_raises "duplicate axis names"
    (Invalid_argument "Space.make s: duplicate axis names") (fun () ->
      ignore
        (Space.make ~name:"s" ~base:(mini ())
           ~axes:
             [
               Space.mips_axis ~resource:"CPU" [ 1.0 ];
               Space.mips_axis ~resource:"CPU" [ 2.0 ];
             ]));
  Alcotest.check_raises "duplicate choice labels"
    (Invalid_argument "Space.axis a: duplicate choice labels") (fun () ->
      ignore (Space.axis "a" [ ("x", Fun.id); ("x", Fun.id) ]))

let test_space_invalid_candidate_raises () =
  (* mapping a compute step onto a link is caught at enumeration time,
     not mid-sweep *)
  let sp =
    Space.make ~name:"s"
      ~base:(Ita_casestudy.Radionav.system Ita_casestudy.Radionav.Al_tmc
               Ita_casestudy.Radionav.Po)
      ~axes:[ Space.mapping_axis ~scenario:"HandleTMC" ~step:2 [ "BUS" ] ]
  in
  match Space.candidates sp with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "compute-on-link must be rejected"

(* ------------------------------------------------------------------ *)
(* Pareto                                                              *)
(* ------------------------------------------------------------------ *)

let test_pareto_frontier () =
  let pts = [ (2., 6.); (1., 5.); (5., 5.); (3., 3.); (2., 4.); (4., 2.) ] in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "non-dominated, sorted by first metric"
    [ (1., 5.); (2., 4.); (3., 3.); (4., 2.) ]
    (Pareto.frontier ~metrics:Fun.id pts)

let test_pareto_keeps_ties () =
  Alcotest.(check int)
    "identical points all kept" 2
    (List.length (Pareto.frontier ~metrics:Fun.id [ (1., 1.); (1., 1.) ]))

let test_pareto_empty () =
  Alcotest.(check int)
    "empty in, empty out" 0
    (List.length (Pareto.frontier ~metrics:Fun.id []))

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map () =
  let xs = Array.init 8 Fun.id in
  let out = Pool.map ~jobs:4 (fun x -> x * x) xs in
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check int) "square in order" (i * i) v
      | _ -> Alcotest.fail "all jobs must complete")
    out

let test_pool_exception_isolated () =
  let out =
    Pool.map ~jobs:2
      (fun x -> if x = 1 then failwith "boom" else x + 10)
      [| 0; 1; 2 |]
  in
  (match out.(1) with
  | Pool.Crashed msg ->
      Alcotest.(check bool) "message survives the pipe" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "raising job must report Crashed");
  List.iter
    (fun i ->
      match out.(i) with
      | Pool.Done v -> Alcotest.(check int) "neighbour intact" (i + 10) v
      | _ -> Alcotest.fail "crash must not leak into other jobs")
    [ 0; 2 ]

let test_pool_hard_exit_isolated () =
  let out =
    Pool.map ~jobs:2
      (fun x -> if x = 1 then Unix._exit 3 else x + 10)
      [| 0; 1; 2 |]
  in
  (match out.(1) with
  | Pool.Crashed msg ->
      Alcotest.(check string) "exit code reported"
        "worker exited with code 3" msg
  | _ -> Alcotest.fail "hard exit must report Crashed");
  match (out.(0), out.(2)) with
  | Pool.Done 10, Pool.Done 12 -> ()
  | _ -> Alcotest.fail "hard exit must not leak into other jobs"

let test_pool_timeout_isolated () =
  let out =
    Pool.map ~jobs:2 ~timeout_s:0.3
      (fun x ->
        if x = 0 then Unix.sleepf 30.0;
        x)
      [| 0; 1; 2 |]
  in
  (match out.(0) with
  | Pool.Timed_out s ->
      Alcotest.(check bool) "killed after the limit" true (s >= 0.3)
  | _ -> Alcotest.fail "sleeper must time out");
  match (out.(1), out.(2)) with
  | Pool.Done 1, Pool.Done 2 -> ()
  | _ -> Alcotest.fail "timeout must not leak into other jobs"

let test_pool_on_result_streams () =
  let settled = ref [] in
  ignore
    (Pool.map ~jobs:2
       ~on_result:(fun i _ -> settled := i :: !settled)
       (fun x -> x)
       [| 0; 1; 2; 3 |]);
  Alcotest.(check (list int))
    "every job observed exactly once" [ 0; 1; 2; 3 ]
    (List.sort compare !settled)

let test_pool_empty () =
  Alcotest.(check int) "no jobs, no outcomes" 0
    (Array.length (Pool.map Fun.id [||]))

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let fresh_dir tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ita-dse-test-%s-%d" tag (Unix.getpid ()))

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let test_cache_roundtrip () =
  let dir = fresh_dir "roundtrip" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache = Cache.create ~dir in
  let key = Cache.job_key (mini_spec ()) in
  Alcotest.(check bool) "cold lookup misses" true (Cache.find cache key = None);
  let r = { Job.measure = Job.Exact 4; elapsed = 0.01; explored = 7 } in
  Cache.store cache key r;
  (match Cache.find cache key with
  | Some r' -> Alcotest.(check bool) "stored = loaded" true (r = r')
  | None -> Alcotest.fail "stored entry must be found");
  Alcotest.(check (pair int int)) "hit/miss accounting" (1, 1)
    (Cache.hits cache, Cache.misses cache)

let test_cache_key_discriminates () =
  let k = Cache.job_key (mini_spec ()) in
  Alcotest.(check string) "key is stable" k (Cache.job_key (mini_spec ()));
  Alcotest.(check bool) "technique changes the key" true
    (k <> Cache.job_key (mini_spec ~technique:Job.Symta ()));
  Alcotest.(check bool) "model changes the key" true
    (k <> Cache.job_key (mini_spec ~mips:2.0 ()));
  let spec = mini_spec () in
  Alcotest.(check bool) "budget changes the key" true
    (k
    <> Cache.job_key
         { spec with Job.budget = { spec.Job.budget with Job.sim_runs = 9 } });
  Alcotest.(check bool) "domain count changes the key" true
    (k
    <> Cache.job_key
         { spec with Job.budget = { spec.Job.budget with Job.mc_domains = Some 4 } });
  Alcotest.(check bool) "abstraction changes the key" true
    (k
    <> Cache.job_key
         {
           spec with
           Job.budget =
             { spec.Job.budget with Job.mc_abstraction = Ita_mc.Reach.LuSim };
         });
  Alcotest.(check bool) "certification changes the key" true
    (k
    <> Cache.job_key
         {
           spec with
           Job.budget = { spec.Job.budget with Job.mc_certify = true };
         })

let test_cache_corrupt_entry_is_miss () =
  let dir = fresh_dir "corrupt" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache = Cache.create ~dir in
  let key = Cache.job_key (mini_spec ()) in
  let r = { Job.measure = Job.Exact 4; elapsed = 0.01; explored = 7 } in
  Cache.store cache key r;
  (* truncate the entry behind the cache's back *)
  let file = Filename.concat dir (key ^ ".job") in
  let oc = open_out_bin file in
  output_string oc "not a marshaled value";
  close_out oc;
  Alcotest.(check bool) "corrupt entry reads as a miss" true
    (Cache.find cache key = None)

(* ------------------------------------------------------------------ *)
(* Job                                                                 *)
(* ------------------------------------------------------------------ *)

let test_job_mc_exact () =
  let r = Job.run (mini_spec ()) in
  Alcotest.(check bool) "mc finds the exact WCRT" true
    (r.Job.measure = Job.Exact 4);
  let r = Job.run (mini_spec ~mips:2.0 ()) in
  Alcotest.(check bool) "twice the MIPS, half the WCRT" true
    (r.Job.measure = Job.Exact 2)

let test_job_upper_bounds_cover () =
  List.iter
    (fun technique ->
      match (Job.run (mini_spec ~technique ())).Job.measure with
      | Job.Upper v ->
          Alcotest.(check bool)
            (Job.technique_name technique ^ " bound is sound")
            true (v >= 4)
      | m ->
          Alcotest.failf "%s must return an upper bound, got %a"
            (Job.technique_name technique)
            Job.pp_measure m)
    [ Job.Symta; Job.Rtc ]

let test_job_unknown_name_raises () =
  Alcotest.check_raises "unknown scenario is a caller bug" Not_found
    (fun () ->
      ignore (Job.run { (mini_spec ()) with Job.scenario = "nope" }))

(* ------------------------------------------------------------------ *)
(* Explore end to end                                                  *)
(* ------------------------------------------------------------------ *)

let explore ?isolation ?cache ?inject_crash () =
  Explore.run ?isolation ~jobs:2 ~timeout_s:60.0 ?cache ?inject_crash
    (mini_space ()) ~techniques:[ Job.Mc; Job.Symta ] ~scenario:"Hi"
    ~requirement:"R"

let cell_measure (cell : Explore.cell) =
  match cell.Explore.status with
  | Explore.Done r -> Some r.Job.measure
  | _ -> None

let test_explore_end_to_end () =
  let report = explore () in
  Alcotest.(check int) "all jobs executed" 4 report.Explore.executed;
  Alcotest.(check int) "none failed" 0 report.Explore.failed;
  Alcotest.(check (option int)) "deadline picked up" (Some 40)
    report.Explore.deadline_us;
  let mc_values =
    List.map
      (fun (row : Explore.row) ->
        List.find_map
          (fun (c : Explore.cell) ->
            if c.Explore.technique = Job.Mc then cell_measure c else None)
          row.Explore.cells)
      report.Explore.rows
  in
  Alcotest.(check bool) "exact WCRTs per candidate" true
    (mc_values = [ Some (Job.Exact 4); Some (Job.Exact 2) ]);
  List.iter
    (fun row ->
      match Explore.feasibility ~deadline_us:report.Explore.deadline_us row with
      | `Feasible -> ()
      | _ -> Alcotest.fail "both candidates meet the 40 us deadline")
    report.Explore.rows;
  Alcotest.(check (list (option int)))
    "row WCRTs" [ Some 4; Some 2 ]
    (List.map Explore.row_wcrt_us report.Explore.rows);
  (* (wcrt 4, cost 1) and (wcrt 2, cost 2) trade off: both on the
     frontier *)
  Alcotest.(check int) "frontier size" 2
    (List.length (Explore.frontier report))

let test_explore_cache_hits () =
  let dir = fresh_dir "explore" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache = Cache.create ~dir in
  let cold = explore ~cache () in
  Alcotest.(check (pair int int)) "cold pass runs everything" (0, 4)
    (cold.Explore.cache_hits, cold.Explore.executed);
  let warm = explore ~cache () in
  Alcotest.(check (pair int int)) "warm pass runs nothing" (4, 0)
    (warm.Explore.cache_hits, warm.Explore.executed);
  Alcotest.(check (list (option int)))
    "cached rows carry the same answers" [ Some 4; Some 2 ]
    (List.map Explore.row_wcrt_us warm.Explore.rows);
  List.iter
    (fun (row : Explore.row) ->
      List.iter
        (fun (c : Explore.cell) ->
          Alcotest.(check bool) "warm cells marked cached" true
            c.Explore.cached)
        row.Explore.cells)
    warm.Explore.rows

let test_explore_crash_isolated () =
  (* flat job 0 = (candidate 0, Mc); its worker dies silently *)
  let report = explore ~inject_crash:0 () in
  Alcotest.(check int) "exactly one loss" 1 report.Explore.failed;
  let statuses =
    List.concat_map
      (fun (row : Explore.row) ->
        List.map (fun (c : Explore.cell) -> c.Explore.status) row.Explore.cells)
      report.Explore.rows
  in
  (match List.hd statuses with
  | Explore.Crashed _ -> ()
  | _ -> Alcotest.fail "injected job must report Crashed");
  Alcotest.(check int) "all other results survive" 3
    (List.length
       (List.filter
          (function Explore.Done _ -> true | _ -> false)
          statuses));
  (* the crashed mc cell leaves symta's upper bound as candidate 0's
     figure: the row still has a usable verdict *)
  Alcotest.(check bool) "wounded row still reports" true
    (Explore.row_wcrt_us (List.hd report.Explore.rows) <> None)

(* ------------------------------------------------------------------ *)
(* Domain pool (must run after every fork-based test: once a domain
   has been spawned, the runtime forbids Unix.fork in this process)    *)
(* ------------------------------------------------------------------ *)

let test_pool_map_domains () =
  let xs = Array.init 40 Fun.id in
  let out = Pool.map_domains ~jobs:4 (fun x -> x * x) xs in
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check int) "square" (i * i) v
      | _ -> Alcotest.fail "domain job must succeed")
    out

let test_pool_map_domains_exception_isolated () =
  let out =
    Pool.map_domains ~jobs:3
      (fun x -> if x = 2 then failwith "boom" else x + 1)
      [| 0; 1; 2; 3 |]
  in
  (match out.(2) with
  | Pool.Crashed msg ->
      Alcotest.(check bool) "message survives" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "raising job must be Crashed");
  List.iter
    (fun i ->
      match out.(i) with
      | Pool.Done v -> Alcotest.(check int) "neighbour survives" (i + 1) v
      | _ -> Alcotest.fail "non-raising jobs must succeed")
    [ 0; 1; 3 ]

let test_pool_map_domains_on_result () =
  let seen = ref [] in
  let out =
    Pool.map_domains ~jobs:2
      ~on_result:(fun i _ -> seen := i :: !seen)
      (fun x -> x)
      [| 10; 11; 12 |]
  in
  Alcotest.(check int) "all settled" 3 (Array.length out);
  Alcotest.(check (list int))
    "every job streamed exactly once" [ 0; 1; 2 ]
    (List.sort compare !seen)

let test_pool_map_domains_empty () =
  Alcotest.(check int) "empty input" 0
    (Array.length (Pool.map_domains Fun.id [||]))

(* the same sweep through the shared domain pool: identical answers,
   no forking, and the report says which pool ran it *)
let explore_domains ?cache ?inject_crash () =
  Explore.run ~isolation:`Domains ~jobs:2 ?cache ?inject_crash (mini_space ())
    ~techniques:[ Job.Mc; Job.Symta ] ~scenario:"Hi" ~requirement:"R"

let test_explore_domains_end_to_end () =
  let report = explore_domains () in
  Alcotest.(check bool) "report says domains" true
    (report.Explore.isolation = `Domains);
  Alcotest.(check int) "all jobs executed" 4 report.Explore.executed;
  Alcotest.(check int) "none failed" 0 report.Explore.failed;
  Alcotest.(check (list (option int)))
    "same row WCRTs as the forked sweep" [ Some 4; Some 2 ]
    (List.map Explore.row_wcrt_us report.Explore.rows);
  Alcotest.(check int) "frontier size" 2
    (List.length (Explore.frontier report))

let test_explore_domains_crash_isolated () =
  (* under the domain pool the injected fault raises instead of dying;
     the job is Crashed, everything else survives *)
  let report = explore_domains ~inject_crash:0 () in
  Alcotest.(check int) "exactly one loss" 1 report.Explore.failed;
  let statuses =
    List.concat_map
      (fun (row : Explore.row) ->
        List.map (fun (c : Explore.cell) -> c.Explore.status) row.Explore.cells)
      report.Explore.rows
  in
  (match List.hd statuses with
  | Explore.Crashed _ -> ()
  | _ -> Alcotest.fail "injected job must report Crashed");
  Alcotest.(check int) "all other results survive" 3
    (List.length
       (List.filter
          (function Explore.Done _ -> true | _ -> false)
          statuses))

let test_explore_domains_auto_default () =
  (* no timeout, no fault injection: auto selection picks the domain
     pool; the per-job budget gets mc_domains pinned to 1 so pool and
     engine parallelism do not multiply *)
  let report =
    Explore.run ~jobs:2 (mini_space ()) ~techniques:[ Job.Mc ] ~scenario:"Hi"
      ~requirement:"R"
  in
  Alcotest.(check bool) "auto selects domains" true
    (report.Explore.isolation = `Domains);
  Alcotest.(check int) "none failed" 0 report.Explore.failed;
  Alcotest.(check (list (option int)))
    "row WCRTs" [ Some 4; Some 2 ]
    (List.map Explore.row_wcrt_us report.Explore.rows)

let () =
  Alcotest.run "dse"
    [
      ( "space",
        [
          Alcotest.test_case "cartesian product" `Quick test_space_product;
          Alcotest.test_case "transforms applied" `Quick
            test_space_transform_applied;
          Alcotest.test_case "empty axes" `Quick test_space_empty_axes;
          Alcotest.test_case "duplicate rejection" `Quick
            test_space_rejects_duplicates;
          Alcotest.test_case "invalid candidate" `Quick
            test_space_invalid_candidate_raises;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "frontier" `Quick test_pareto_frontier;
          Alcotest.test_case "ties kept" `Quick test_pareto_keeps_ties;
          Alcotest.test_case "empty" `Quick test_pareto_empty;
        ] );
      ( "pool",
        [
          Alcotest.test_case "parallel map" `Quick test_pool_map;
          Alcotest.test_case "exception isolated" `Quick
            test_pool_exception_isolated;
          Alcotest.test_case "hard exit isolated" `Quick
            test_pool_hard_exit_isolated;
          Alcotest.test_case "timeout isolated" `Quick
            test_pool_timeout_isolated;
          Alcotest.test_case "on_result streams" `Quick
            test_pool_on_result_streams;
          Alcotest.test_case "empty input" `Quick test_pool_empty;
        ] );
      ( "cache",
        [
          Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip;
          Alcotest.test_case "key discriminates" `Quick
            test_cache_key_discriminates;
          Alcotest.test_case "corrupt entry" `Quick
            test_cache_corrupt_entry_is_miss;
        ] );
      ( "job",
        [
          Alcotest.test_case "mc exact" `Quick test_job_mc_exact;
          Alcotest.test_case "analytic upper bounds" `Quick
            test_job_upper_bounds_cover;
          Alcotest.test_case "unknown names raise" `Quick
            test_job_unknown_name_raises;
        ] );
      ( "explore",
        [
          Alcotest.test_case "end to end" `Quick test_explore_end_to_end;
          Alcotest.test_case "cache hits" `Quick test_explore_cache_hits;
          Alcotest.test_case "crash isolated" `Quick
            test_explore_crash_isolated;
        ] );
      (* keep these last: they spawn domains, after which the runtime
         forbids Unix.fork in this process *)
      ( "pool-domains",
        [
          Alcotest.test_case "parallel map" `Quick test_pool_map_domains;
          Alcotest.test_case "exception isolated" `Quick
            test_pool_map_domains_exception_isolated;
          Alcotest.test_case "on_result streams" `Quick
            test_pool_map_domains_on_result;
          Alcotest.test_case "empty input" `Quick test_pool_map_domains_empty;
        ] );
      ( "explore-domains",
        [
          Alcotest.test_case "end to end" `Quick
            test_explore_domains_end_to_end;
          Alcotest.test_case "crash isolated" `Quick
            test_explore_domains_crash_isolated;
          Alcotest.test_case "auto default" `Quick
            test_explore_domains_auto_default;
        ] );
    ]
