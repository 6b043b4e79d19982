(* Tests for the architecture-modeling core: units, event models,
   scenarios, system models, the TA generator and the analysis
   driver. *)

open Ita_core
module Reach = Ita_mc.Reach

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let test_units () =
  (* the case-study constants, rounded to nearest us (see DESIGN.md) *)
  Alcotest.(check int) "1e5 instr at 22 MIPS" 4545
    (Units.us_of_instructions ~instructions:1e5 ~mips:22.0);
  Alcotest.(check int) "5e5 at 22" 22727
    (Units.us_of_instructions ~instructions:5e5 ~mips:22.0);
  Alcotest.(check int) "1e6 at 11" 90909
    (Units.us_of_instructions ~instructions:1e6 ~mips:11.0);
  Alcotest.(check int) "5e6 at 113 rounds up" 44248
    (Units.us_of_instructions ~instructions:5e6 ~mips:113.0);
  Alcotest.(check int) "4 B at 72 kbps" 444 (Units.us_of_bytes ~bytes:4 ~kbps:72.0);
  Alcotest.(check int) "64 B at 72 kbps" 7111
    (Units.us_of_bytes ~bytes:64 ~kbps:72.0);
  Alcotest.(check string) "ms formatting" "79.075"
    (Format.asprintf "%a" Units.pp_ms 79075);
  Alcotest.(check int) "ms of us round trip" 31250 (Units.us_of_ms 31.25)

(* ------------------------------------------------------------------ *)
(* Event models                                                        *)
(* ------------------------------------------------------------------ *)

let test_eventmodel_validate () =
  let ok m = Alcotest.(check bool) "valid" true (Eventmodel.validate m = Ok ()) in
  let bad m =
    Alcotest.(check bool) "invalid" true (Result.is_error (Eventmodel.validate m))
  in
  ok (Eventmodel.Periodic { period = 10; offset = 0 });
  bad (Eventmodel.Periodic { period = 0; offset = 0 });
  bad (Eventmodel.Periodic { period = 10; offset = -1 });
  ok (Eventmodel.Periodic_jitter { period = 10; jitter = 10 });
  bad (Eventmodel.Periodic_jitter { period = 10; jitter = 11 });
  ok (Eventmodel.Bursty { period = 10; jitter = 20; min_separation = 0 });
  bad (Eventmodel.Bursty { period = 10; jitter = 10; min_separation = 0 })

let test_eventmodel_pjd () =
  Alcotest.(check (triple int int int))
    "sporadic" (7, 0, 7)
    (Eventmodel.pjd (Eventmodel.Sporadic { min_separation = 7 }));
  Alcotest.(check (triple int int int))
    "bursty" (10, 25, 2)
    (Eventmodel.pjd
       (Eventmodel.Bursty { period = 10; jitter = 25; min_separation = 2 }));
  Alcotest.(check int) "backlog of J=2P" 3
    (Eventmodel.max_backlog
       (Eventmodel.Bursty { period = 10; jitter = 25; min_separation = 0 }));
  Alcotest.(check int) "backlog of periodic" 1
    (Eventmodel.max_backlog (Eventmodel.Periodic { period = 10; offset = 3 }))

(* ------------------------------------------------------------------ *)
(* Scenario and system validation                                      *)
(* ------------------------------------------------------------------ *)

let cpu = Resource.processor "CPU" ~mips:1.0 ~policy:Resource.Priority_preemptive
let wire = Resource.link "WIRE" ~kbps:8.0 ~policy:Resource.Priority_nonpreemptive

let mini_scenario ?(trigger = Eventmodel.Sporadic { min_separation = 100_000 })
    ?(requirements = []) steps =
  Scenario.make ~name:"S" ~trigger ~band:Scenario.High ~steps ~requirements

let test_scenario_validation () =
  let compute = Scenario.Compute { op = "f"; resource = "CPU"; instructions = 1e3 } in
  let xfer = Scenario.Transfer { msg = "m"; resource = "WIRE"; bytes = 1 } in
  let valid s = Scenario.validate ~resources:[ cpu; wire ] s in
  Alcotest.(check bool) "ok" true (valid (mini_scenario [ compute; xfer ]) = Ok ());
  Alcotest.(check bool) "unknown resource" true
    (Result.is_error
       (valid
          (mini_scenario
             [ Scenario.Compute { op = "f"; resource = "GPU"; instructions = 1.0 } ])));
  Alcotest.(check bool) "compute on a link" true
    (Result.is_error
       (valid
          (mini_scenario
             [ Scenario.Compute { op = "f"; resource = "WIRE"; instructions = 1.0 } ])));
  Alcotest.(check bool) "empty scenario" true
    (Result.is_error (valid (mini_scenario [])));
  Alcotest.(check bool) "requirement range" true
    (Result.is_error
       (valid
          (mini_scenario [ compute ]
             ~requirements:
               [ { Scenario.req_name = "r"; from_step = None; to_step = 3; budget_us = None } ])));
  Alcotest.(check bool) "from after to" true
    (Result.is_error
       (valid
          (mini_scenario [ compute; xfer ]
             ~requirements:
               [ { Scenario.req_name = "r"; from_step = Some 1; to_step = 1; budget_us = None } ])))

let test_sysmodel_durations () =
  let s =
    mini_scenario
      [
        Scenario.Compute { op = "f"; resource = "CPU"; instructions = 2e3 };
        Scenario.Transfer { msg = "m"; resource = "WIRE"; bytes = 1 };
      ]
  in
  let m = Sysmodel.make ~name:"m" ~resources:[ cpu; wire ] ~scenarios:[ s ] () in
  (* 2e3 instructions at 1 MIPS = 2000 us; 8 bits at 8 kbps = 1000 us *)
  Alcotest.(check int) "uncontended" 3000
    (Sysmodel.uncontended_us m s ~from_step:None ~to_step:1);
  Alcotest.(check int) "window from step 0" 1000
    (Sysmodel.uncontended_us m s ~from_step:(Some 0) ~to_step:1);
  Alcotest.(check int) "jobs on cpu" 1 (List.length (Sysmodel.jobs_on m cpu));
  let m' = Sysmodel.with_trigger m "S" (Eventmodel.Periodic { period = 5; offset = 0 }) in
  Alcotest.(check int) "with_trigger replaces" 5
    (Eventmodel.period (Sysmodel.scenario m' "S").Scenario.trigger)

(* ------------------------------------------------------------------ *)
(* Generator structure                                                 *)
(* ------------------------------------------------------------------ *)

open Ita_ta

let showdown_system policy =
  let cpu = Resource.processor "CPU" ~mips:10.0 ~policy in
  let hi =
    Scenario.make ~name:"Hi"
      ~trigger:(Eventmodel.Periodic_unknown_offset { period = 10_000 })
      ~band:Scenario.High
      ~steps:[ Scenario.Compute { op = "h"; resource = "CPU"; instructions = 2e4 } ]
      ~requirements:
        [ { Scenario.req_name = "r"; from_step = None; to_step = 0; budget_us = None } ]
  in
  let lo =
    Scenario.make ~name:"Lo"
      ~trigger:(Eventmodel.Sporadic { min_separation = 50_000 })
      ~band:Scenario.Low
      ~steps:[ Scenario.Compute { op = "l"; resource = "CPU"; instructions = 3e5 } ]
      ~requirements:[]
  in
  Sysmodel.make ~name:"showdown" ~resources:[ cpu ] ~scenarios:[ hi; lo ]
    ~queue_bound:8 ()

let test_gen_nonpreemptive_shape () =
  let sys = showdown_system Resource.Priority_nonpreemptive in
  let gen = Gen.generate sys in
  let cpu_auto = gen.Gen.net.Network.automata.(0) in
  (* Figure 4 shape: idle + one busy location per job *)
  Alcotest.(check int) "idle + 2 busy" 3 (Array.length cpu_auto.Automaton.locations);
  Alcotest.(check int) "2 claim + 2 complete edges" 4
    (Array.length cpu_auto.Automaton.edges);
  (* priority guard: the Low claim must check the High queue *)
  let low_claim =
    Array.to_list cpu_auto.Automaton.edges
    |> List.find (fun (e : Automaton.edge) ->
           e.Automaton.src = 0
           && (Automaton.location cpu_auto e.Automaton.dst).Automaton.loc_name
              = "busy_Lo_l")
  in
  let guard_mentions_hi_queue =
    List.mem (Network.var_index gen.Gen.net "q_Hi_0")
      (Expr.bvars low_claim.Automaton.guard.Guard.data)
  in
  Alcotest.(check bool) "low claim guarded by high queue" true
    guard_mentions_hi_queue

let test_gen_preemptive_shape () =
  let sys = showdown_system Resource.Priority_preemptive in
  let gen = Gen.generate sys in
  let cpu_auto = gen.Gen.net.Network.automata.(0) in
  (* Figure 5 shape: idle + busy_h + busy_l + pre_{l,h} *)
  Alcotest.(check int) "idle + 2 busy + 1 pre" 4
    (Array.length cpu_auto.Automaton.locations);
  Alcotest.(check bool) "has a D variable" true
    (match Network.var_index gen.Gen.net "CPU_D" with
    | _ -> true
    | exception Not_found -> false)

let test_gen_measuring_variant () =
  let sys = showdown_system Resource.Priority_preemptive in
  let s = Sysmodel.scenario sys "Hi" in
  let req = Scenario.requirement s "r" in
  let gen = Gen.generate ~measure:("Hi", req) sys in
  (match gen.Gen.observer with
  | None -> Alcotest.fail "no observer generated"
  | Some obs ->
      Alcotest.(check bool) "observer clock exists" true (obs.Gen.obs_clock > 0));
  let env = gen.Gen.net.Network.automata.(Network.component_index gen.Gen.net "ENV_Hi") in
  Alcotest.(check bool) "has a seen location" true
    (match Automaton.find_location env "seen" with
    | _ -> true
    | exception Not_found -> false);
  Alcotest.(check bool) "seen is committed" true
    ((Automaton.location env (Automaton.find_location env "seen")).Automaton.kind
    = Automaton.Committed)

let test_gen_hurry_urgent () =
  let sys = showdown_system Resource.Priority_nonpreemptive in
  let gen = Gen.generate sys in
  let hurry =
    Array.to_list gen.Gen.net.Network.channels
    |> List.find (fun (c : Channel.t) -> c.Channel.name = "hurry")
  in
  Alcotest.(check bool) "hurry is urgent broadcast" true
    (hurry.Channel.urgent && hurry.Channel.kind = Channel.Broadcast)

(* ------------------------------------------------------------------ *)
(* End-to-end analysis on small systems with known answers             *)
(* ------------------------------------------------------------------ *)

let test_analyze_uncontended () =
  (* single scenario, no rivals: WCRT = sum of durations, everywhere *)
  let s =
    Scenario.make ~name:"Only"
      ~trigger:(Eventmodel.Periodic_unknown_offset { period = 100_000 })
      ~band:Scenario.High
      ~steps:
        [
          Scenario.Compute { op = "a"; resource = "CPU"; instructions = 2e4 };
          Scenario.Transfer { msg = "m"; resource = "WIRE"; bytes = 1 };
          Scenario.Compute { op = "b"; resource = "CPU"; instructions = 1e4 };
        ]
      ~requirements:
        [
          { Scenario.req_name = "e2e"; from_step = None; to_step = 2; budget_us = None };
          { Scenario.req_name = "tail"; from_step = Some 0; to_step = 2; budget_us = None };
        ]
  in
  let cpu = Resource.processor "CPU" ~mips:10.0 ~policy:Resource.Priority_preemptive in
  let m = Sysmodel.make ~name:"solo" ~resources:[ cpu; wire ] ~scenarios:[ s ] () in
  let r = Analyze.wcrt m ~scenario:"Only" ~requirement:"e2e" in
  Alcotest.(check int) "uncontended field" 4000 r.Analyze.uncontended_us;
  (match r.Analyze.outcome with
  | Analyze.Exact_wcrt v -> Alcotest.(check int) "e2e = sum" 4000 v
  | _ -> Alcotest.fail "expected exact result");
  let r = Analyze.wcrt m ~scenario:"Only" ~requirement:"tail" in
  match r.Analyze.outcome with
  | Analyze.Exact_wcrt v -> Alcotest.(check int) "tail window" 2000 v
  | _ -> Alcotest.fail "expected exact result"

let test_analyze_nonpreemptive_blocking () =
  (* the showdown example: high job of 2 ms blocked by a 30 ms low job *)
  let exact sys =
    match (Analyze.wcrt sys ~scenario:"Hi" ~requirement:"r").Analyze.outcome with
    | Analyze.Exact_wcrt v -> v
    | _ -> Alcotest.fail "expected exact"
  in
  let np = exact (showdown_system Resource.Priority_nonpreemptive) in
  let p = exact (showdown_system Resource.Priority_preemptive) in
  Alcotest.(check int) "preemptive: just its own 2 ms" 2000 p;
  (* non-preemptive: 30 ms block + backlog of its own activations *)
  Alcotest.(check bool) "non-preemptive far worse" true (np >= 30_000);
  Alcotest.(check bool) "but bounded by block + backlog drain" true (np <= 36_000)

let test_analyze_binary_search_agrees () =
  (* the paper's Property-1 search on the same measured network *)
  let sys = showdown_system Resource.Priority_preemptive in
  let r = Analyze.wcrt sys ~scenario:"Hi" ~requirement:"r" in
  let req = Scenario.requirement (Sysmodel.scenario sys "Hi") "r" in
  let gen = Gen.generate ~measure:("Hi", req) sys in
  let obs = Option.get gen.Gen.observer in
  let bs =
    Models.binary_search ~hi:4000 gen.Gen.net ~at:obs.Gen.seen
      ~clock:obs.Gen.obs_clock
  in
  match r.Analyze.outcome with
  | Analyze.Exact_wcrt a ->
      Alcotest.(check (option int)) "sup = binary search" (Some a) bs.Models.lower;
      Alcotest.(check (option int)) "first unreachable" (Some (a + 1))
        bs.Models.upper
  | _ -> Alcotest.fail "expected exact results"

(* The WCRT policy's three paths, at one domain so the counts repeat. *)
let policy_wcrt ?budget () =
  Analyze.wcrt ~domains:1 ?budget
    (showdown_system Resource.Priority_nonpreemptive)
    ~scenario:"Hi" ~requirement:"r"

let test_policy_exact () =
  match (policy_wcrt ()).Analyze.outcome with
  | Analyze.Exact_wcrt v ->
      Alcotest.(check int) "30 ms block + its own 2 ms" 32_000 v
  | o -> Alcotest.failf "expected exact, got %a" Analyze.pp_outcome o

let test_policy_unobserved () =
  match (policy_wcrt ~budget:(Reach.states 1) ()).Analyze.outcome with
  | Analyze.Unobserved Analyze.States -> ()
  | o -> Alcotest.failf "expected states-exhausted, got %a" Analyze.pp_outcome o

let test_policy_lower_bound () =
  (* a budget short of the exhaustive count cuts the breadth-first run
     off; once a response has been seen, the outcome is a lower bound
     no larger than the exact WCRT (or exact, when the depth-first
     rerun completes within the budget) *)
  let exact = policy_wcrt () in
  let wcrt =
    match exact.Analyze.outcome with
    | Analyze.Exact_wcrt v -> v
    | _ -> Alcotest.fail "expected exact"
  in
  let bounds = ref 0 in
  let stride = max 1 (exact.Analyze.explored / 40) in
  for i = 0 to (exact.Analyze.explored - 3) / stride do
    let states = 2 + (i * stride) in
    match (policy_wcrt ~budget:(Reach.states states) ()).Analyze.outcome with
    | Analyze.Wcrt_lower_bound { value; exhausted = Analyze.States } ->
        incr bounds;
        if value > wcrt then
          Alcotest.failf "budget %d: bound %d above the WCRT %d" states value
            wcrt
    | Analyze.Unobserved Analyze.States -> ()
    | Analyze.Exact_wcrt v when v = wcrt -> ()
    | o ->
        Alcotest.failf "budget %d: unexpected %a" states Analyze.pp_outcome o
  done;
  Alcotest.(check bool) "some budget runs out after a response" true
    (!bounds > 0)

(* A cut-off run keeps what it saw.  At 100 and 150 states the
   breadth-first run stores goal zones whose measured clock the
   extrapolation lifted past the ceiling: each proves a response of at
   least the ceiling, next to the finite responses it observed.  And a
   larger budget never reports less. *)
let test_policy_budget_sweep () =
  let bound states =
    match (policy_wcrt ~budget:(Reach.states states) ()).Analyze.outcome with
    | Analyze.Wcrt_lower_bound { value; exhausted = Analyze.States } ->
        Some value
    | Analyze.Exact_wcrt v -> Some v
    | Analyze.Unobserved Analyze.States -> None
    | o ->
        Alcotest.failf "budget %d: unexpected %a" states Analyze.pp_outcome o
  in
  List.iter
    (fun states ->
      match (policy_wcrt ~budget:(Reach.states states) ()).Analyze.outcome with
      | Analyze.Wcrt_lower_bound { value; _ } ->
          if value < 2_000 || value > 32_000 then
            Alcotest.failf "budget %d: bound %d outside [2000, 32000]" states
              value
      | o ->
          Alcotest.failf "budget %d: expected a lower bound, got %a" states
            Analyze.pp_outcome o)
    [ 100; 150 ];
  (* [None] sorts below [Some _]: seeing nothing is the least bound *)
  let exhaustive = (policy_wcrt ()).Analyze.explored in
  let stride = max 1 (exhaustive / 100) in
  let rec sweep prev states =
    if states <= exhaustive + stride then begin
      let b = bound states in
      if b < prev then
        Alcotest.failf "budget %d reports less than budget %d" states
          (states - stride);
      sweep b (states + stride)
    end
  in
  sweep None 1

let test_queue_overflow_detected () =
  (* utilization 1.0: backlog grows without bound; the bounded counters
     must catch it rather than silently drop events *)
  let s =
    Scenario.make ~name:"Sat"
      ~trigger:(Eventmodel.Periodic { period = 1000; offset = 0 })
      ~band:Scenario.High
      ~steps:[ Scenario.Compute { op = "w"; resource = "CPU"; instructions = 2e4 } ]
      ~requirements:
        [ { Scenario.req_name = "r"; from_step = None; to_step = 0; budget_us = None } ]
  in
  let cpu = Resource.processor "CPU" ~mips:10.0 ~policy:Resource.Priority_preemptive in
  let m = Sysmodel.make ~name:"sat" ~resources:[ cpu ] ~scenarios:[ s ] ~queue_bound:3 () in
  match Analyze.wcrt m ~scenario:"Sat" ~requirement:"r" with
  | _ -> Alcotest.fail "expected Out_of_range"
  | exception Ita_ta.Update.Out_of_range _ -> ()

(* ------------------------------------------------------------------ *)
(* TDMA: all four engines must agree on the textbook bound             *)
(* ------------------------------------------------------------------ *)

(* One 3 us job on a TDMA resource with a 5 us slot in a 10 us cycle:
   worst case 8 us (arrive just as the window closes, or get caught by
   the blackout mid-job). *)
let tdma_system () =
  let cpu =
    Resource.processor "CPU" ~mips:1.0
      ~policy:(Resource.Tdma { slot_us = 5; cycle_us = 10 })
  in
  let s =
    Scenario.make ~name:"Job"
      ~trigger:(Eventmodel.Sporadic { min_separation = 50 })
      ~band:Scenario.High
      ~steps:[ Scenario.Compute { op = "j"; resource = "CPU"; instructions = 3.0 } ]
      ~requirements:
        [ { Scenario.req_name = "r"; from_step = None; to_step = 0; budget_us = None } ]
  in
  Sysmodel.make ~name:"tdma" ~resources:[ cpu ] ~scenarios:[ s ] ()

let test_tdma_mc () =
  let sys = tdma_system () in
  match (Analyze.wcrt sys ~scenario:"Job" ~requirement:"r").Analyze.outcome with
  | Analyze.Exact_wcrt v -> Alcotest.(check int) "mc: slot miss + work" 8 v
  | _ -> Alcotest.fail "expected exact result"

let test_tdma_symta () =
  let sys = tdma_system () in
  let t = Ita_symta.Sysanalysis.analyze sys in
  Alcotest.(check int) "symta agrees" 8
    (Ita_symta.Sysanalysis.wcrt t sys ~scenario:"Job" ~requirement:"r")

let test_tdma_rtc () =
  let sys = tdma_system () in
  let t = Ita_rtc.Gpc.analyze sys in
  Alcotest.(check int) "rtc agrees" 8
    (Ita_rtc.Gpc.wcrt t sys ~scenario:"Job" ~requirement:"r")

let test_tdma_sim () =
  let sys = tdma_system () in
  let worst = ref 0 in
  for seed = 1 to 20 do
    let stats = Ita_sim.Engine.run ~seed ~horizon_us:5_000 sys in
    List.iter
      (fun (smp : Ita_sim.Engine.sample) ->
        worst := max !worst smp.Ita_sim.Engine.response_us;
        Alcotest.(check bool) "sim below the bound" true
          (smp.Ita_sim.Engine.response_us <= 8))
      stats.Ita_sim.Engine.samples
  done;
  (* the blackout must actually bite in some schedule *)
  Alcotest.(check bool) "sim sees a blackout" true (!worst > 3)

let test_tdma_generator_shape () =
  let sys = tdma_system () in
  let gen = Gen.generate sys in
  let cpu_auto = gen.Gen.net.Ita_ta.Network.automata.(0) in
  (* win_idle, blackout_idle, busy, pre *)
  Alcotest.(check int) "4 locations" 4
    (Array.length cpu_auto.Automaton.locations);
  Alcotest.(check bool) "has a slot clock" true
    (match Network.clock_index gen.Gen.net "CPU_s" with
    | _ -> true
    | exception Not_found -> false)

(* ------------------------------------------------------------------ *)
(* The Figure 8 bursty generator: with J = 2P the release backlog
   peaks at exactly ceil(J/P) + 1 = 3 pending events                   *)
(* ------------------------------------------------------------------ *)

let test_bursty_backlog () =
  let cpu =
    Resource.processor "CPU" ~mips:10.0 ~policy:Resource.Priority_preemptive
  in
  let s =
    Scenario.make ~name:"B"
      ~trigger:(Eventmodel.Bursty { period = 10_000; jitter = 20_000; min_separation = 0 })
      ~band:Scenario.High
      ~steps:[ Scenario.Compute { op = "w"; resource = "CPU"; instructions = 1e4 } ]
      ~requirements:[]
  in
  let sys =
    Sysmodel.make ~name:"burst" ~resources:[ cpu ] ~scenarios:[ s ]
      ~queue_bound:6 ()
  in
  let gen = Gen.generate sys in
  let pending = Network.var_index gen.Gen.net "B_pending" in
  let reach_pending c =
    Ita_mc.Reach.reach gen.Gen.net
      {
        Ita_mc.Query.comp_locs = [];
        guard = Guard.data Expr.(Cmp (Ge, Var pending, Int c));
      }
  in
  (match reach_pending 3 with
  | Ita_mc.Reach.Reachable _ -> ()
  | _ -> Alcotest.fail "a burst of 3 overlapping windows must be possible");
  match reach_pending 4 with
  | Ita_mc.Reach.Unreachable _ -> ()
  | _ -> Alcotest.fail "with J = 2P at most 3 releases can be pending"

(* With J = P two consecutive releases can coincide (window boundary)
   but never three; a fast consumer keeps the queue at the release
   burst. *)
let env_probe trigger ~instructions =
  let cpu =
    Resource.processor "CPU" ~mips:10.0 ~policy:Resource.Priority_preemptive
  in
  let s =
    Scenario.make ~name:"E" ~trigger ~band:Scenario.High
      ~steps:[ Scenario.Compute { op = "w"; resource = "CPU"; instructions } ]
      ~requirements:[]
  in
  let sys =
    Sysmodel.make ~name:"envp" ~resources:[ cpu ] ~scenarios:[ s ]
      ~queue_bound:6 ()
  in
  let gen = Gen.generate sys in
  let q0 = Gen.queue_var gen ~scenario:"E" ~step:0 in
  fun c ->
    Ita_mc.Reach.reach gen.Gen.net
      {
        Ita_mc.Query.comp_locs = [];
        guard = Guard.data Expr.(Cmp (Ge, Var q0, Int c));
      }

let test_jitter_coincidence () =
  let probe =
    env_probe
      (Eventmodel.Periodic_jitter { period = 10_000; jitter = 10_000 })
      ~instructions:1e4
  in
  (match probe 2 with
  | Ita_mc.Reach.Reachable _ -> ()
  | _ -> Alcotest.fail "J = P: two releases can coincide");
  match probe 3 with
  | Ita_mc.Reach.Unreachable _ -> ()
  | _ -> Alcotest.fail "J = P: three pending releases are impossible"

let test_sporadic_separation () =
  let probe =
    env_probe
      (Eventmodel.Sporadic { min_separation = 10_000 })
      ~instructions:1e4 (* 1 ms of work, drained well within the gap *)
  in
  match probe 2 with
  | Ita_mc.Reach.Unreachable _ -> ()
  | _ -> Alcotest.fail "sporadic separation must prevent queue build-up"

(* ------------------------------------------------------------------ *)
(* Segmented links: one frame of blocking instead of a whole message   *)
(* ------------------------------------------------------------------ *)

(* 8 kbps link: an 8-byte frame takes 8 ms.  A high-priority 8-byte
   message behind a low-priority 64-byte message waits for one frame
   (segmented) or the whole message (plain priority). *)
let segmented_system policy =
  let bus = Resource.link "BUS" ~kbps:8.0 ~policy in
  let hi =
    Scenario.make ~name:"Hi"
      ~trigger:(Eventmodel.Sporadic { min_separation = 200_000 })
      ~band:Scenario.High
      ~steps:[ Scenario.Transfer { msg = "h"; resource = "BUS"; bytes = 8 } ]
      ~requirements:
        [ { Scenario.req_name = "r"; from_step = None; to_step = 0; budget_us = None } ]
  in
  let lo =
    Scenario.make ~name:"Lo"
      ~trigger:(Eventmodel.Sporadic { min_separation = 500_000 })
      ~band:Scenario.Low
      ~steps:[ Scenario.Transfer { msg = "l"; resource = "BUS"; bytes = 64 } ]
      ~requirements:[]
  in
  Sysmodel.make ~name:"seg" ~resources:[ bus ] ~scenarios:[ hi; lo ] ()

let exact_hi sys =
  match (Analyze.wcrt sys ~scenario:"Hi" ~requirement:"r").Analyze.outcome with
  | Analyze.Exact_wcrt v -> v
  | _ -> Alcotest.fail "expected exact"

let test_segmented_mc () =
  let plain = exact_hi (segmented_system Resource.Priority_nonpreemptive) in
  Alcotest.(check int) "plain: whole-message block" 72_000 plain;
  let seg =
    exact_hi
      (segmented_system (Resource.Priority_segmented { frame_bytes = 8 }))
  in
  Alcotest.(check int) "segmented: one-frame block" 16_000 seg

let test_segmented_symta () =
  let wcrt sys =
    let t = Ita_symta.Sysanalysis.analyze sys in
    Ita_symta.Sysanalysis.wcrt t sys ~scenario:"Hi" ~requirement:"r"
  in
  Alcotest.(check int) "plain" 72_000
    (wcrt (segmented_system Resource.Priority_nonpreemptive));
  Alcotest.(check int) "segmented" 16_000
    (wcrt (segmented_system (Resource.Priority_segmented { frame_bytes = 8 })))

let test_segmented_sim () =
  let sys = segmented_system (Resource.Priority_segmented { frame_bytes = 8 }) in
  for seed = 1 to 10 do
    let stats = Ita_sim.Engine.run ~seed ~horizon_us:5_000_000 sys in
    List.iter
      (fun (smp : Ita_sim.Engine.sample) ->
        if smp.Ita_sim.Engine.scenario = "Hi" then
          Alcotest.(check bool) "sim below mc bound" true
            (smp.Ita_sim.Engine.response_us <= 16_000))
      stats.Ita_sim.Engine.samples
  done

let test_segmented_low_still_completes () =
  (* the 64-byte message still goes through (8 frames, possibly
     interleaved with high frames) *)
  let sys = segmented_system (Resource.Priority_segmented { frame_bytes = 8 }) in
  let sys =
    {
      sys with
      Sysmodel.scenarios =
        List.map
          (fun (sc : Scenario.t) ->
            if sc.Scenario.name = "Lo" then
              {
                sc with
                Scenario.requirements =
                  [
                    {
                      Scenario.req_name = "r";
                      from_step = None;
                      to_step = 0;
                      budget_us = None;
                    };
                  ];
              }
            else sc)
          sys.Sysmodel.scenarios;
    }
  in
  match (Analyze.wcrt sys ~scenario:"Lo" ~requirement:"r").Analyze.outcome with
  | Analyze.Exact_wcrt v ->
      (* 8 frames of its own + at most one high message per gap *)
      Alcotest.(check bool) "low bounded" true (v >= 64_000 && v <= 96_000)
  | _ -> Alcotest.fail "expected exact"

let () =
  Alcotest.run "core"
    [
      ("units", [ Alcotest.test_case "conversions" `Quick test_units ]);
      ( "eventmodel",
        [
          Alcotest.test_case "validate" `Quick test_eventmodel_validate;
          Alcotest.test_case "pjd/backlog" `Quick test_eventmodel_pjd;
        ] );
      ( "scenario/sysmodel",
        [
          Alcotest.test_case "scenario validation" `Quick test_scenario_validation;
          Alcotest.test_case "durations" `Quick test_sysmodel_durations;
        ] );
      ( "gen",
        [
          Alcotest.test_case "nonpreemptive shape" `Quick test_gen_nonpreemptive_shape;
          Alcotest.test_case "preemptive shape" `Quick test_gen_preemptive_shape;
          Alcotest.test_case "measuring variant" `Quick test_gen_measuring_variant;
          Alcotest.test_case "hurry urgent broadcast" `Quick test_gen_hurry_urgent;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "uncontended" `Quick test_analyze_uncontended;
          Alcotest.test_case "blocking" `Quick test_analyze_nonpreemptive_blocking;
          Alcotest.test_case "binary agrees with sup" `Quick
            test_analyze_binary_search_agrees;
          Alcotest.test_case "policy: exact" `Quick test_policy_exact;
          Alcotest.test_case "policy: nothing observed" `Quick
            test_policy_unobserved;
          Alcotest.test_case "policy: lower bound" `Quick
            test_policy_lower_bound;
          Alcotest.test_case "policy: budget sweep" `Quick
            test_policy_budget_sweep;
          Alcotest.test_case "queue overflow detected" `Quick
            test_queue_overflow_detected;
        ] );
      ( "tdma",
        [
          Alcotest.test_case "model checker" `Quick test_tdma_mc;
          Alcotest.test_case "busy window" `Quick test_tdma_symta;
          Alcotest.test_case "calculus" `Quick test_tdma_rtc;
          Alcotest.test_case "simulation" `Quick test_tdma_sim;
          Alcotest.test_case "generator shape" `Quick test_tdma_generator_shape;
        ] );
      ( "eventmodels",
        [
          Alcotest.test_case "bursty backlog bound" `Quick test_bursty_backlog;
          Alcotest.test_case "jitter coincidence" `Quick test_jitter_coincidence;
          Alcotest.test_case "sporadic separation" `Quick
            test_sporadic_separation;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "check_budgets verdicts" `Quick
            (fun () ->
              (* the 10 ms control loop of the scheduler example: met
                 with preemption, violated without *)
              let report policy =
                let cpu = Resource.processor "CPU" ~mips:10.0 ~policy in
                let s =
                  Scenario.make ~name:"Loop"
                    ~trigger:(Eventmodel.Periodic_unknown_offset { period = 20_000 })
                    ~band:Scenario.High
                    ~steps:
                      [ Scenario.Compute { op = "c"; resource = "CPU"; instructions = 2e4 } ]
                    ~requirements:
                      [
                        {
                          Scenario.req_name = "dl";
                          from_step = None;
                          to_step = 0;
                          budget_us = Some 10_000;
                        };
                      ]
                in
                let lo =
                  Scenario.make ~name:"Noise"
                    ~trigger:(Eventmodel.Sporadic { min_separation = 100_000 })
                    ~band:Scenario.Low
                    ~steps:
                      [ Scenario.Compute { op = "n"; resource = "CPU"; instructions = 3e5 } ]
                    ~requirements:[]
                in
                let sys =
                  Sysmodel.make ~name:"b" ~resources:[ cpu ]
                    ~scenarios:[ s; lo ] ~queue_bound:8 ()
                in
                match Analyze.check_budgets sys with
                | [ r ] -> r.Analyze.verdict
                | _ -> Alcotest.fail "expected one budgeted requirement"
              in
              Alcotest.(check bool) "preemptive meets" true
                (report Resource.Priority_preemptive = Analyze.Met);
              Alcotest.(check bool) "nonpreemptive violates" true
                (report Resource.Priority_nonpreemptive = Analyze.Violated));
        ] );
      ( "segmented",
        [
          Alcotest.test_case "model checker" `Quick test_segmented_mc;
          Alcotest.test_case "busy window" `Quick test_segmented_symta;
          Alcotest.test_case "simulation" `Quick test_segmented_sim;
          Alcotest.test_case "low completes" `Quick
            test_segmented_low_still_completes;
        ] );
    ]
