(* Tests for the real-time-calculus substrate: curves, min-plus
   operators and the GPC composition. *)

open Ita_core
module Curve = Ita_rtc.Curve
module Minplus = Ita_rtc.Minplus
module Gpc = Ita_rtc.Gpc

let horizon = 1_000

(* ------------------------------------------------------------------ *)
(* Curves                                                              *)
(* ------------------------------------------------------------------ *)

let test_upper_pjd () =
  (* closed-window convention: alpha(0) is the instantaneous burst *)
  let a = Curve.upper_pjd ~period:10 ~jitter:0 ~dmin:0 in
  Alcotest.(check int) "alpha(0)" 1 (Curve.eval a 0);
  Alcotest.(check int) "alpha(9)" 1 (Curve.eval a 9);
  Alcotest.(check int) "alpha(10)" 2 (Curve.eval a 10);
  let b = Curve.upper_pjd ~period:10 ~jitter:15 ~dmin:0 in
  Alcotest.(check int) "jitter burst at 0" 2 (Curve.eval b 0);
  let c = Curve.upper_pjd ~period:10 ~jitter:15 ~dmin:3 in
  Alcotest.(check int) "dmin caps the burst" 1 (Curve.eval c 0);
  Alcotest.(check int) "dmin: two events 3 apart" 2 (Curve.eval c 3)

let test_curve_algebra () =
  let r = Curve.rate 2 in
  Alcotest.(check int) "rate" 14 (Curve.eval r 7);
  let k = Curve.constant 5 in
  let s = Curve.add r k in
  Alcotest.(check int) "add" 19 (Curve.eval s 7)

let prop_upper_monotone =
  QCheck2.Test.make ~count:300 ~name:"upper_pjd monotone"
    QCheck2.Gen.(tup4 (int_range 1 40) (int_range 0 80) (int_range 0 8) (int_range 0 200))
    (fun (p, j, d, x) ->
      let a = Curve.upper_pjd ~period:p ~jitter:j ~dmin:d in
      Curve.eval a x <= Curve.eval a (x + 1))

(* ------------------------------------------------------------------ *)
(* Min-plus operators                                                  *)
(* ------------------------------------------------------------------ *)

let test_horizontal_deviation () =
  (* one event of demand 5 on a unit-rate server: delay 5 *)
  let demand = Curve.scale (Curve.upper_pjd ~period:100 ~jitter:0 ~dmin:0) 5 in
  let service = Curve.rate 1 in
  Alcotest.(check int) "single job" 5
    (Minplus.horizontal_deviation ~horizon ~demand ~service);
  (* overload within the horizon: no bound *)
  let heavy = Curve.scale (Curve.upper_pjd ~period:2 ~jitter:0 ~dmin:0) 5 in
  Alcotest.(check bool) "overload detected" true
    (Minplus.horizontal_deviation ~horizon ~demand:heavy ~service = max_int)

let test_leftover () =
  (* unit rate minus one 5-unit job per 10: leftover has 5 per 10 *)
  let hi = Curve.scale (Curve.upper_pjd ~period:10 ~jitter:0 ~dmin:0) 5 in
  let left = Minplus.leftover ~horizon ~service:(Curve.rate 1) ~demand:hi in
  (* sup at lambda = 9 (just before the second event): 9 - 5 = 4 *)
  Alcotest.(check int) "leftover at 10" 4 (Curve.eval left 10);
  Alcotest.(check int) "leftover at 20" 9 (Curve.eval left 20);
  Alcotest.(check int) "leftover never negative" 0 (Curve.eval left 0)

let prop_leftover_bounded =
  QCheck2.Test.make ~count:100 ~name:"leftover within [0, service]"
    QCheck2.Gen.(tup3 (int_range 1 30) (int_range 1 10) (int_range 0 300))
    (fun (p, c, x) ->
      let demand = Curve.scale (Curve.upper_pjd ~period:p ~jitter:0 ~dmin:0) c in
      let left = Minplus.leftover ~horizon ~service:(Curve.rate 1) ~demand in
      let v = Curve.eval left x in
      0 <= v && v <= x)

(* ------------------------------------------------------------------ *)
(* GPC on systems with known answers                                   *)
(* ------------------------------------------------------------------ *)

let test_gpc_solo () =
  let cpu = Resource.processor "CPU" ~mips:10.0 ~policy:Resource.Priority_preemptive in
  let s =
    Scenario.make ~name:"Solo"
      ~trigger:(Eventmodel.Periodic_unknown_offset { period = 100_000 })
      ~band:Scenario.High
      ~steps:
        [ Scenario.Compute { op = "a"; resource = "CPU"; instructions = 2e4 } ]
      ~requirements:
        [ { Scenario.req_name = "r"; from_step = None; to_step = 0; budget_us = None } ]
  in
  let sys = Sysmodel.make ~name:"solo" ~resources:[ cpu ] ~scenarios:[ s ] () in
  let t = Gpc.analyze sys in
  Alcotest.(check int) "solo delay = wcet" 2000
    (Gpc.wcrt t sys ~scenario:"Solo" ~requirement:"r")

let test_gpc_two_bands () =
  let cpu = Resource.processor "CPU" ~mips:10.0 ~policy:Resource.Priority_preemptive in
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
      ~trigger:(Eventmodel.Sporadic { min_separation = 20_000 })
      ~band:Scenario.Low
      ~steps:[ Scenario.Compute { op = "l"; resource = "CPU"; instructions = 5e4 } ]
      ~requirements:
        [ { Scenario.req_name = "r"; from_step = None; to_step = 0; budget_us = None } ]
  in
  let sys = Sysmodel.make ~name:"duo" ~resources:[ cpu ] ~scenarios:[ hi; lo ] () in
  let t = Gpc.analyze sys in
  Alcotest.(check int) "high unaffected by low" 2000
    (Gpc.wcrt t sys ~scenario:"Hi" ~requirement:"r");
  (* low on leftover service: 5 + one 2 ms preemption = 7 ms, the
     busy-window answer; the curve analysis must agree *)
  Alcotest.(check int) "low on leftover" 7000
    (Gpc.wcrt t sys ~scenario:"Lo" ~requirement:"r")

let test_gpc_backlog () =
  let sys = Ita_casestudy.Radionav.system Ita_casestudy.Radionav.Al_tmc
      Ita_casestudy.Radionav.Pno
  in
  let t = Gpc.analyze sys in
  List.iter
    (fun (st : Gpc.step_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s backlog sane" st.Gpc.scenario st.Gpc.step_name)
        true
        (st.Gpc.backlog >= 0 && st.Gpc.backlog <= 8))
    t.Gpc.steps

let () =
  Alcotest.run "rtc"
    [
      ( "curve",
        [
          Alcotest.test_case "upper pjd" `Quick test_upper_pjd;
          Alcotest.test_case "algebra" `Quick test_curve_algebra;
          QCheck_alcotest.to_alcotest prop_upper_monotone;
        ] );
      ( "minplus",
        [
          Alcotest.test_case "horizontal deviation" `Quick
            test_horizontal_deviation;
          Alcotest.test_case "leftover" `Quick test_leftover;
          QCheck_alcotest.to_alcotest prop_leftover_bounded;
        ] );
      ( "gpc",
        [
          Alcotest.test_case "solo" `Quick test_gpc_solo;
          Alcotest.test_case "two bands" `Quick test_gpc_two_bands;
          Alcotest.test_case "backlog sanity" `Quick test_gpc_backlog;
        ] );
    ]
