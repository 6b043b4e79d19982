(* Regression tests pinning the case study to its validated numbers
   (see EXPERIMENTS.md).  The cells pinned here take seconds at most;
   the ones that run under the Table 1 budget also pin that it is
   large enough for them to finish exactly.  The slow
   ChangeVolume-combination cells are left to `ranav table1`. *)

open Ita_core
module R = Ita_casestudy.Radionav
module Reach = Ita_mc.Reach

let exact ?domains ?budget sys ~scenario ~requirement =
  match
    (Analyze.wcrt ?domains ?budget sys ~scenario ~requirement).Analyze.outcome
  with
  | Analyze.Exact_wcrt v -> v
  | o -> Alcotest.failf "expected exact, got %a" Analyze.pp_outcome o

(* Under the Table 1 budget, at one domain, where explored counts
   repeat: several domains may expand zones that one domain prunes
   (AddressLookup bur explores 102 335 states at one domain, and has
   taken up to 146 630 at two). *)
let exact_in_budget = exact ~domains:1 ~budget:(Reach.states R.table_budget)

let test_parameters () =
  let sys = R.system R.Al_tmc R.Po in
  let al = Sysmodel.scenario sys "AddressLookup" in
  (* the paper-pinning identity: rounded-us AddressLookup chain *)
  Alcotest.(check int) "AddressLookup uncontended = 79.075 ms" 79_075
    (Sysmodel.uncontended_us sys al ~from_step:None ~to_step:4);
  let tmc = Sysmodel.scenario sys "HandleTMC" in
  Alcotest.(check int) "HandleTMC uncontended = 172.106 ms" 172_106
    (Sysmodel.uncontended_us sys tmc ~from_step:None ~to_step:4)

let test_al_po () =
  let sys = R.system R.Al_tmc R.Po in
  Alcotest.(check int) "AddressLookup po = paper's 79.075" 79_075
    (exact sys ~scenario:"AddressLookup" ~requirement:"E2E");
  Alcotest.(check int) "HandleTMC po = paper's 172.106" 172_106
    (exact sys ~scenario:"HandleTMC" ~requirement:"TMC")

let test_tmc_pno_sp () =
  (* paper: 239.080; we compute 239.081 (1 us of publication rounding) *)
  let tmc column =
    exact_in_budget (R.system R.Al_tmc column) ~scenario:"HandleTMC"
      ~requirement:"TMC"
  in
  Alcotest.(check int) "HandleTMC pno" 239_081 (tmc R.Pno);
  Alcotest.(check int) "HandleTMC sp = pno (paper agrees)" 239_081 (tmc R.Sp);
  (* paper: 329.989 *)
  Alcotest.(check int) "HandleTMC pj" 329_990 (tmc R.Pj)

let test_al_invariance () =
  (* "AddressLookup ... remains constant since it has priority" *)
  List.iter
    (fun col ->
      let sys = R.system R.Al_tmc col in
      Alcotest.(check int)
        (Printf.sprintf "AddressLookup %s" (R.column_name col))
        79_075
        (exact_in_budget sys ~scenario:"AddressLookup" ~requirement:"E2E"))
    [ R.Po; R.Pno; R.Pj; R.Bur ]

let test_cv_po_tmc () =
  let sys = R.system R.Cv_tmc R.Po in
  (* paper 357.133 with its (unpublished) MMI arbitration; ours is the
     nondeterministic-within-band reading: 373.859 *)
  Alcotest.(check int) "HandleTMC (+ChangeVolume) po" 373_859
    (exact sys ~scenario:"HandleTMC" ~requirement:"TMC")

(* The generator puts the measured clock's first extrapolation ceiling
   into the network: four times the uncontended window, on every
   Table 1 row (A2V's window starts at an intermediate step). *)
let test_observer_constant () =
  List.iter
    (fun (row : R.row) ->
      let sys = R.system row.R.combo R.Po in
      let s = Sysmodel.scenario sys row.R.scenario in
      let req = Scenario.requirement s row.R.requirement in
      let gen = Gen.generate ~measure:(row.R.scenario, req) sys in
      let obs = Option.get gen.Gen.observer in
      Alcotest.(check int)
        (Printf.sprintf "%s: observer constant" row.R.label)
        (4
        * Sysmodel.uncontended_us sys s ~from_step:req.Scenario.from_step
            ~to_step:req.Scenario.to_step)
        gen.Gen.net.Ita_ta.Network.k.(obs.Gen.obs_clock))
    R.table1_rows

(* Every caller runs the same search: [Wcrt.sup] handed the generated
   network starts its ceiling where [Analyze.wcrt] does, so at one
   domain the two agree on the WCRT and on the explored count. *)
let test_single_search () =
  let sys = R.system R.Cv_tmc R.Po in
  let req = Scenario.requirement (Sysmodel.scenario sys "ChangeVolume") "K2A" in
  let gen = Gen.generate ~measure:("ChangeVolume", req) sys in
  let obs = Option.get gen.Gen.observer in
  let r = Analyze.wcrt ~domains:1 sys ~scenario:"ChangeVolume" ~requirement:"K2A" in
  match
    ( r.Analyze.outcome,
      Ita_mc.Wcrt.sup ~domains:1 gen.Gen.net ~at:obs.Gen.seen
        ~clock:obs.Gen.obs_clock )
  with
  | Analyze.Exact_wcrt v, Ita_mc.Wcrt.Sup { value; stats; _ } ->
      Alcotest.(check int) "K2A po = 32.829" 32_829 v;
      Alcotest.(check int) "same WCRT" v value;
      Alcotest.(check int) "same explored count" r.Analyze.explored
        stats.Reach.explored
  | o, _ -> Alcotest.failf "expected exact sups, got %a" Analyze.pp_outcome o

let test_sim_below_mc () =
  (* Table 2's shape: simulation never exceeds the model checker *)
  let sys = R.system R.Al_tmc R.Pno in
  let mc = exact sys ~scenario:"HandleTMC" ~requirement:"TMC" in
  for seed = 1 to 5 do
    let stats = Ita_sim.Engine.run ~seed ~horizon_us:30_000_000 sys in
    List.iter
      (fun (s : Ita_sim.Engine.sample) ->
        if s.Ita_sim.Engine.scenario = "HandleTMC" then
          Alcotest.(check bool)
            (Printf.sprintf "seed %d below mc" seed)
            true
            (s.Ita_sim.Engine.response_us <= mc))
      stats.Ita_sim.Engine.samples
  done

let test_analytic_above_mc () =
  (* ... and the analytic techniques never fall below it *)
  let sys = R.system R.Al_tmc R.Pno in
  let mc = exact sys ~scenario:"HandleTMC" ~requirement:"TMC" in
  let symta =
    let t = Ita_symta.Sysanalysis.analyze sys in
    Ita_symta.Sysanalysis.wcrt t sys ~scenario:"HandleTMC" ~requirement:"TMC"
  in
  let mpa =
    let t = Ita_rtc.Gpc.analyze sys in
    Ita_rtc.Gpc.wcrt t sys ~scenario:"HandleTMC" ~requirement:"TMC"
  in
  Alcotest.(check bool) "symta >= mc" true (symta >= mc);
  Alcotest.(check bool) "mpa >= mc" true (mpa >= mc)

let test_mpa_matches_paper () =
  (* three of the paper's five MPA cells are reproduced to within
     publication rounding; pin them *)
  let mpa combo scen req =
    let sys = R.system combo R.Pno in
    let t = Ita_rtc.Gpc.analyze sys in
    Ita_rtc.Gpc.wcrt t sys ~scenario:scen ~requirement:req
  in
  let close expected actual =
    Alcotest.(check bool)
      (Printf.sprintf "MPA %d within 20 us of paper's %d" actual expected)
      true
      (abs (actual - expected) <= 20)
  in
  close 390_086 (mpa R.Cv_tmc "HandleTMC" "TMC");
  close 265_849 (mpa R.Al_tmc "HandleTMC" "TMC");
  close 84_066 (mpa R.Al_tmc "AddressLookup" "E2E")

let test_columns () =
  Alcotest.(check string) "po" "po" (R.column_name R.Po);
  (match R.trigger R.Bur ~period:10 with
  | Eventmodel.Bursty { period = 10; jitter = 20; min_separation = 0 } -> ()
  | _ -> Alcotest.fail "bur trigger must be J = 2P, D = 0");
  match R.trigger R.Pj ~period:10 with
  | Eventmodel.Periodic_jitter { period = 10; jitter = 10 } -> ()
  | _ -> Alcotest.fail "pj trigger must be J = P"

let () =
  Alcotest.run "casestudy"
    [
      ( "parameters",
        [
          Alcotest.test_case "uncontended chains" `Quick test_parameters;
          Alcotest.test_case "table columns" `Quick test_columns;
        ] );
      ( "pinned cells",
        [
          Alcotest.test_case "al combo, po" `Quick test_al_po;
          Alcotest.test_case "tmc pno/sp" `Quick test_tmc_pno_sp;
          Alcotest.test_case "addresslookup invariance" `Slow test_al_invariance;
          Alcotest.test_case "cv combo, po (tmc)" `Quick test_cv_po_tmc;
        ] );
      ( "sup ceiling",
        [
          Alcotest.test_case "observer constant" `Quick test_observer_constant;
          Alcotest.test_case "single search: K2A po" `Quick test_single_search;
        ] );
      ( "cross-technique shape",
        [
          Alcotest.test_case "sim below mc" `Slow test_sim_below_mc;
          Alcotest.test_case "analytics above mc" `Quick test_analytic_above_mc;
          Alcotest.test_case "mpa matches paper cells" `Quick
            test_mpa_matches_paper;
        ] );
    ]
