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
  let a = Curve.scale (Curve.upper_pjd ~period:10 ~jitter:0 ~dmin:0) 2 in
  let k = Curve.constant 5 in
  let s = Curve.add a k in
  Alcotest.(check int) "add" 9 (Curve.eval s 17)

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
  let service = Fun.id in
  Alcotest.(check int) "single job" 5
    (Minplus.horizontal_deviation ~horizon ~demand ~service);
  (* overload within the horizon: no bound *)
  let heavy = Curve.scale (Curve.upper_pjd ~period:2 ~jitter:0 ~dmin:0) 5 in
  Alcotest.(check bool) "overload detected" true
    (Minplus.horizontal_deviation ~horizon ~demand:heavy ~service = max_int)

let test_leftover () =
  (* unit rate minus one 5-unit job per 10: leftover has 5 per 10 *)
  let hi = Curve.scale (Curve.upper_pjd ~period:10 ~jitter:0 ~dmin:0) 5 in
  let left = Minplus.leftover ~horizon ~service:Fun.id ~demand:hi in
  (* sup at lambda = 9 (just before the second event): 9 - 5 = 4 *)
  Alcotest.(check int) "leftover at 10" 4 (left 10);
  Alcotest.(check int) "leftover at 20" 9 (left 20);
  Alcotest.(check int) "leftover never negative" 0 (left 0)

let prop_leftover_bounded =
  QCheck2.Test.make ~count:100 ~name:"leftover within [0, service]"
    QCheck2.Gen.(tup3 (int_range 1 30) (int_range 1 10) (int_range 0 300))
    (fun (p, c, x) ->
      let demand = Curve.scale (Curve.upper_pjd ~period:p ~jitter:0 ~dmin:0) c in
      let left = Minplus.leftover ~horizon ~service:Fun.id ~demand in
      let v = left x in
      0 <= v && v <= x)

(* The operators against brute force over every integer window.  A
   demand is one or two scaled staircases; a service is a rate, or its
   leftover after a rival staircase.  [leftover] must be exact over
   [[0, horizon]]; [horizontal_deviation] must be exact when every
   catch-up ends inside the horizon, and otherwise an upper bound on the
   catch-ups of the true (unhorizoned) service.  The delay is checked
   twice: for the demand on the service, and for a fresh staircase (the
   victim) on the service's leftover after the demand, a leftover of a
   leftover when there is a rival, the nesting Gpc builds for a low
   band and on TDMA resources. *)

type stair = { period : int; jitter : int; dmin : int; scale : int }

type minplus_case = {
  horizon : int;
  demand : stair * stair option;
  rate : int;
  rival : stair option;
  victim : stair;
}

let gen_stair =
  QCheck2.Gen.(
    let+ period = int_range 1 40
    and+ jitter = int_range 0 59
    and+ dmin = int_range 0 5
    and+ scale = int_range 1 5 in
    { period; jitter; dmin; scale })

let gen_minplus_case =
  QCheck2.Gen.(
    let+ horizon = int_range 50 299
    and+ first = gen_stair
    and+ second = opt ~ratio:0.5 gen_stair
    and+ rate = int_range 1 3
    and+ rival = opt ~ratio:0.5 gen_stair
    and+ victim = gen_stair in
    { horizon; demand = (first, second); rate; rival; victim })

let print_minplus_case c =
  let stair s =
    Printf.sprintf "%d*pjd(%d,%d,%d)" s.scale s.period s.jitter s.dmin
  in
  let opt f = function None -> "-" | Some s -> f s in
  let first, second = c.demand in
  Printf.sprintf "horizon %d, demand %s + %s, rate %d, rival %s, victim %s"
    c.horizon (stair first) (opt stair second) c.rate (opt stair c.rival)
    (stair c.victim)

let stair_curve s =
  Curve.scale
    (Curve.upper_pjd ~period:s.period ~jitter:s.jitter ~dmin:s.dmin)
    s.scale

let stair_at s =
  let a = Curve.upper_pjd ~period:s.period ~jitter:s.jitter ~dmin:s.dmin in
  fun d -> s.scale * Curve.eval a d

(* [prefix_sup n f].(d) = max (0, sup_{0 <= l <= d} f l) *)
let prefix_sup n f =
  let best = ref 0 in
  Array.init n (fun d ->
      best := max !best (f d);
      !best)

let prop_minplus_brute_force =
  QCheck2.Test.make ~count:2000 ~name:"operators equal brute force"
    ~print:print_minplus_case gen_minplus_case (fun c ->
      let h = c.horizon in
      let first, second = c.demand in
      let demand =
        match second with
        | None -> stair_curve first
        | Some s -> Curve.add (stair_curve first) (stair_curve s)
      in
      let service =
        match c.rival with
        | None -> (fun d -> c.rate * d)
        | Some r ->
            Minplus.leftover ~horizon:h ~service:(fun d -> c.rate * d)
              ~demand:(stair_curve r)
      in
      (* brute force over [0, 2h]: the deviations look up to a horizon
         past their last candidate *)
      let n = (2 * h) + 1 in
      let dem =
        let first_at = stair_at first in
        match second with
        | None -> Array.init n first_at
        | Some s ->
            let second_at = stair_at s in
            Array.init n (fun d -> first_at d + second_at d)
      in
      let svc =
        match c.rival with
        | None -> Array.init n (fun d -> c.rate * d)
        | Some r ->
            let rival_at = stair_at r in
            prefix_sup n (fun d -> (c.rate * d) - rival_at d)
      in
      let agree what f expected =
        for d = 0 to h do
          let got = f d in
          if got <> expected.(d) then
            QCheck2.Test.fail_reportf "%s at %d: %d, brute force %d" what d
              got expected.(d)
        done
      in
      agree "service" service svc;
      let left = prefix_sup n (fun d -> svc.(d) - dem.(d)) in
      agree "leftover" (Minplus.leftover ~horizon:h ~service ~demand) left;
      (* [horizontal_deviation ~demand ~service] against [dem] on [svc]:
         the least y in [x, limit x] with svc y >= dem x, over every x *)
      let delay what ~demand ~service dem svc =
        let catch_up ~limit x =
          let rec go y =
            if y > limit then None
            else if svc.(y) >= dem.(x) then Some (y - x)
            else go (y + 1)
          in
          go x
        in
        let worst ~limit =
          List.fold_left
            (fun acc x ->
              match (acc, catch_up ~limit:(limit x) x) with
              | Some w, Some tau -> Some (max w tau)
              | _ -> None)
            (Some 0)
            (List.init (h + 1) Fun.id)
        in
        let hd = Minplus.horizontal_deviation ~horizon:h ~demand ~service in
        match worst ~limit:(fun _ -> h) with
        | Some w ->
            hd = w
            || QCheck2.Test.fail_reportf "%s: horizontal deviation %d, brute force %d"
                 what hd w
        | None -> (
            match worst ~limit:(fun x -> x + h) with
            | Some w ->
                hd >= w
                || QCheck2.Test.fail_reportf
                     "%s: horizontal deviation %d below the true delay %d" what
                     hd w
            | None ->
                hd = max_int
                || QCheck2.Test.fail_reportf
                     "%s: horizontal deviation %d, brute force unbounded" what hd)
      in
      delay "demand" ~demand ~service dem svc
      && delay "victim" ~demand:(stair_curve c.victim)
           ~service:(Minplus.leftover ~horizon:h ~service ~demand)
           (Array.init n (stair_at c.victim))
           left)

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

(* Table 2's MPA column and the bus-bandwidth sweep's rtc figures,
   pinned exactly.  Each system is analysed once and every requirement
   is read off that one analysis. *)
let check_wcrts label sys cells =
  let t = Gpc.analyze sys in
  List.iter
    (fun (scenario, requirement, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "%s %s/%s" label scenario requirement)
        expected
        (Gpc.wcrt t sys ~scenario ~requirement))
    cells

let test_gpc_table2 () =
  let module R = Ita_casestudy.Radionav in
  check_wcrts "cv pno" (R.system R.Cv_tmc R.Pno)
    [
      ("HandleTMC", "TMC", 390_080);
      ("ChangeVolume", "K2A", 153_106);
      ("ChangeVolume", "A2V", 62_639);
    ];
  check_wcrts "al pno" (R.system R.Al_tmc R.Pno)
    [ ("HandleTMC", "TMC", 265_847); ("AddressLookup", "E2E", 84_064) ]

let test_gpc_bus_sweep () =
  let space =
    Ita_dse.Spaces.radionav ~rad_mips:[ 11.0 ]
      ~bus_kbps:[ 48.0; 60.0; 72.0; 96.0; 120.0 ] ()
  in
  List.iter2
    (fun (c : Ita_dse.Space.candidate) expected ->
      check_wcrts (Ita_dse.Space.label c) c.Ita_dse.Space.sys
        [ ("HandleTMC", "TMC", expected) ])
    (Ita_dse.Space.candidates space)
    [ 284_073; 273_135; 265_847; 256_735; 251_273 ]

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
          QCheck_alcotest.to_alcotest prop_minplus_brute_force;
        ] );
      ( "gpc",
        [
          Alcotest.test_case "solo" `Quick test_gpc_solo;
          Alcotest.test_case "two bands" `Quick test_gpc_two_bands;
          Alcotest.test_case "bus sweep" `Quick test_gpc_bus_sweep;
          Alcotest.test_case "table 2 mpa column" `Quick test_gpc_table2;
        ] );
    ]
