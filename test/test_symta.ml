(* Tests for the busy-window analysis: event streams, single-resource
   response times against classical textbook examples, and the
   system-level fixpoint. *)

open Ita_core
module Ev = Ita_symta.Evstream
module Bw = Ita_symta.Busywindow
module Sa = Ita_symta.Sysanalysis

(* ------------------------------------------------------------------ *)
(* Event streams                                                       *)
(* ------------------------------------------------------------------ *)

let test_eta_periodic () =
  let s = { Ev.period = 10; jitter = 0; dmin = 10 } in
  Alcotest.(check int) "eta+(0)" 0 (Ev.eta_plus s 0);
  Alcotest.(check int) "eta+(1)" 1 (Ev.eta_plus s 1);
  Alcotest.(check int) "eta+(10)" 1 (Ev.eta_plus s 10);
  Alcotest.(check int) "eta+(11)" 2 (Ev.eta_plus s 11)

let test_eta_jitter () =
  let s = { Ev.period = 10; jitter = 15; dmin = 0 } in
  (* burst: ceil((1 + 15) / 10) = 2 events can coincide *)
  Alcotest.(check int) "burst of 2" 2 (Ev.eta_plus s 1);
  Alcotest.(check int) "eta+(6)" 3 (Ev.eta_plus s 6);
  (* with a separation of 3, at most ceil(d/3) in (0, d] *)
  let s' = { s with Ev.dmin = 3 } in
  Alcotest.(check int) "dmin caps burst" 1 (Ev.eta_plus s' 1);
  Alcotest.(check int) "dmin caps eta(6)" 2 (Ev.eta_plus s' 6)

let test_delta_min () =
  let s = { Ev.period = 10; jitter = 15; dmin = 2 } in
  Alcotest.(check int) "q=1" 0 (Ev.delta_min s 1);
  (* periodic part: (3-1)*10 - 15 = 5; separation part: (3-1)*2 = 4 *)
  Alcotest.(check int) "q=3" 5 (Ev.delta_min s 3);
  Alcotest.(check int) "q=2: separation dominates" 2 (Ev.delta_min s 2)

let prop_eta_monotone =
  QCheck2.Test.make ~count:300 ~name:"eta_plus is monotone"
    QCheck2.Gen.(tup4 (int_range 1 50) (int_range 0 100) (int_range 0 10) (int_range 0 200))
    (fun (p, j, d, delta) ->
      let s = { Ev.period = p; jitter = j; dmin = d } in
      Ev.eta_plus s delta <= Ev.eta_plus s (delta + 1))

let prop_delta_min_inverse =
  QCheck2.Test.make ~count:300 ~name:"eta_plus (delta_min q) covers q events"
    QCheck2.Gen.(tup3 (int_range 1 50) (int_range 0 100) (int_range 1 20))
    (fun (p, j, q) ->
      let s = { Ev.period = p; jitter = j; dmin = 0 } in
      (* q events can really arrive within delta_min(q) (closed window,
         so the open-window eta at delta+1 must reach q) *)
      Ev.eta_plus s (Ev.delta_min s q + 1) >= q)

(* ------------------------------------------------------------------ *)
(* Busy windows                                                        *)
(* ------------------------------------------------------------------ *)

let task ?(group = "g") ?(step = 0) ?(pending = 0) ?(prefix = 0) name wcet
    period band =
  {
    Bw.task_name = name;
    group;
    step_index = step;
    chain_pending = pending;
    prefix_response = prefix;
    delta_jitter = 0;
    block_quantum = wcet;
    wcet;
    stream = { Ev.period; jitter = 0; dmin = period };
    cross_stream = { Ev.period; jitter = 0; dmin = 0 };
    band;
  }

let r_of name responses =
  (List.find (fun (r : Bw.response) -> r.Bw.task.Bw.task_name = name) responses)
    .Bw.r_max

let test_single_task () =
  let rs = Bw.analyze Bw.Preemptive [ task "t" 3 10 Scenario.High ] in
  Alcotest.(check int) "alone: R = C" 3 (r_of "t" rs)

let test_two_bands_preemptive () =
  (* textbook: high (C=2, P=10) and low (C=5, P=20), different groups *)
  let hi = task ~group:"a" "hi" 2 10 Scenario.High in
  let lo = task ~group:"b" "lo" 5 20 Scenario.Low in
  let rs = Bw.analyze Bw.Preemptive [ hi; lo ] in
  Alcotest.(check int) "high unaffected" 2 (r_of "hi" rs);
  (* low: w = 5 + ceil(w/10)*2 -> w = 7 *)
  Alcotest.(check int) "low: 5 + one preemption" 7 (r_of "lo" rs)

let test_nonpreemptive_blocking () =
  let hi = task ~group:"a" "hi" 2 10 Scenario.High in
  let lo = task ~group:"b" "lo" 5 20 Scenario.Low in
  let rs = Bw.analyze Bw.Nonpreemptive [ hi; lo ] in
  (* high pays the low block: 5 + 2 *)
  Alcotest.(check int) "high blocked once" 7 (r_of "hi" rs)

let test_multiple_activations () =
  (* two high tasks at utilization 0.9: the busy window spans several
     of the task's own activations *)
  let a = task ~group:"a" "a" 5 10 Scenario.High in
  let b = task ~group:"b" "b" 4 10 Scenario.High in
  let rs = Bw.analyze Bw.Preemptive [ a; b ] in
  (* w(q) = 5q + 4*ceil(w/10); q=1: 9, eta_a(9)=1 -> stop.
     Response = 9. *)
  Alcotest.(check int) "a" 9 (r_of "a" rs);
  Alcotest.(check int) "b" 9 (r_of "b" rs)

let test_unschedulable () =
  let a = task ~group:"a" "a" 6 10 Scenario.High in
  let b = task ~group:"b" "b" 6 10 Scenario.High in
  match Bw.analyze Bw.Preemptive [ a; b ] with
  | _ -> Alcotest.fail "utilization 1.2 must diverge"
  | exception Bw.Unschedulable _ -> ()

let test_precedence_no_collision () =
  (* same group, downstream rival with no backlog: zero interference —
     the AddressLookup phenomenon *)
  let first = task ~group:"g" ~step:0 "first" 2 100 Scenario.High in
  let last = task ~group:"g" ~step:1 "last" 50 100 Scenario.High in
  let rs = Bw.analyze Bw.Preemptive [ first; last ] in
  Alcotest.(check int) "downstream rival ignored" 2 (r_of "first" rs);
  (* the upstream rival's execution for the shared event precedes the
     window, and the next event is a full period away: no collision *)
  Alcotest.(check int) "upstream execution precedes window" 50 (r_of "last" rs);
  (* with pipeline backlog, newer events' upstream steps do land in
     the window *)
  let last' = task ~group:"g" ~step:1 ~prefix:60 "lastp" 50 100 Scenario.High in
  let rs' = Bw.analyze Bw.Preemptive [ first; last' ] in
  Alcotest.(check int) "bunched upstream counted" 52 (r_of "lastp" rs')

(* ------------------------------------------------------------------ *)
(* System level                                                        *)
(* ------------------------------------------------------------------ *)

let test_sysanalysis_solo () =
  let cpu = Resource.processor "CPU" ~mips:10.0 ~policy:Resource.Priority_preemptive in
  let s =
    Scenario.make ~name:"Solo"
      ~trigger:(Eventmodel.Periodic_unknown_offset { period = 100_000 })
      ~band:Scenario.High
      ~steps:
        [
          Scenario.Compute { op = "a"; resource = "CPU"; instructions = 2e4 };
          Scenario.Compute { op = "b"; resource = "CPU"; instructions = 1e4 };
        ]
      ~requirements:
        [ { Scenario.req_name = "e2e"; from_step = None; to_step = 1; budget_us = None } ]
  in
  let sys = Sysmodel.make ~name:"solo" ~resources:[ cpu ] ~scenarios:[ s ] () in
  let t = Sa.analyze sys in
  Alcotest.(check int) "solo chain = sum of wcets" 3000
    (Sa.wcrt t sys ~scenario:"Solo" ~requirement:"e2e")

let test_sysanalysis_case_study () =
  let sys = Ita_casestudy.Radionav.system Ita_casestudy.Radionav.Al_tmc
      Ita_casestudy.Radionav.Pno
  in
  let t = Sa.analyze sys in
  let al = Sa.wcrt t sys ~scenario:"AddressLookup" ~requirement:"E2E" in
  let tmc = Sa.wcrt t sys ~scenario:"HandleTMC" ~requirement:"TMC" in
  (* conservative w.r.t. the model checker's exact values *)
  Alcotest.(check bool) "al >= 79075" true (al >= 79_075);
  Alcotest.(check bool) "tmc >= 239081" true (tmc >= 239_081);
  (* and not wildly so (within 2x) *)
  Alcotest.(check bool) "al within 2x" true (al <= 2 * 79_075);
  Alcotest.(check bool) "tmc within 2x" true (tmc <= 2 * 239_081)

(* Table 2's SymTA/S column, pinned exactly: each combination is
   analysed once and its requirements are read off that one analysis. *)
let test_sysanalysis_table2 () =
  let module R = Ita_casestudy.Radionav in
  let check label sys cells =
    let t = Sa.analyze sys in
    List.iter
      (fun (scenario, requirement, expected) ->
        Alcotest.(check int)
          (Printf.sprintf "%s %s/%s" label scenario requirement)
          expected
          (Sa.wcrt t sys ~scenario ~requirement))
      cells
  in
  check "cv pno" (R.system R.Cv_tmc R.Pno)
    [
      ("HandleTMC", "TMC", 786_511);
      ("ChangeVolume", "K2A", 60_422);
      ("ChangeVolume", "A2V", 32_705);
    ];
  check "al pno" (R.system R.Al_tmc R.Pno)
    [ ("HandleTMC", "TMC", 258_736); ("AddressLookup", "E2E", 79_075) ]

let () =
  Alcotest.run "symta"
    [
      ( "evstream",
        [
          Alcotest.test_case "periodic eta" `Quick test_eta_periodic;
          Alcotest.test_case "jitter eta" `Quick test_eta_jitter;
          Alcotest.test_case "delta_min" `Quick test_delta_min;
          QCheck_alcotest.to_alcotest prop_eta_monotone;
          QCheck_alcotest.to_alcotest prop_delta_min_inverse;
        ] );
      ( "busywindow",
        [
          Alcotest.test_case "single task" `Quick test_single_task;
          Alcotest.test_case "two bands preemptive" `Quick test_two_bands_preemptive;
          Alcotest.test_case "nonpreemptive blocking" `Quick
            test_nonpreemptive_blocking;
          Alcotest.test_case "multiple activations" `Quick
            test_multiple_activations;
          Alcotest.test_case "unschedulable" `Quick test_unschedulable;
          Alcotest.test_case "precedence" `Quick test_precedence_no_collision;
        ] );
      ( "sysanalysis",
        [
          Alcotest.test_case "solo chain" `Quick test_sysanalysis_solo;
          Alcotest.test_case "case study bounds" `Quick
            test_sysanalysis_case_study;
          Alcotest.test_case "table 2 symta column" `Quick
            test_sysanalysis_table2;
        ] );
    ]
