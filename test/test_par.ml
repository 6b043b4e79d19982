(* Differential tests for multicore exploration: every verdict and WCRT
   produced with several worker domains must be identical to the
   one-domain run's, on the model zoo, on random automata and on the
   radionav case study.  On these small models the final antichain and
   [stored] (resident zones) also match the one-domain run and are
   stress-tested for nondeterminism; [explored] and [transitions],
   which depend on the schedule, are never compared here. *)

open Ita_ta
open Ita_mc
module Dbm = Ita_dbm.Dbm
module R = Ita_casestudy.Radionav

(* ------------------------------------------------------------------ *)
(* Order-insensitive passed-list fingerprints                          *)
(* ------------------------------------------------------------------ *)

let antichain_fp net passed =
  (* per discrete state the antichain of stored zones, both levels
     sorted: the engine promises deterministic *contents*, never
     order *)
  passed
  |> List.map (fun ((st : Semantics.state), zones) ->
         ( Format.asprintf "%a" (Semantics.pp_state net) st,
           List.sort compare (List.map (Format.asprintf "%a" Dbm.pp) zones) ))
  |> List.sort compare

let resident_zones passed =
  List.fold_left (fun n (_, zones) -> n + List.length zones) 0 passed

(* the final passed list and stats of a complete exploration of the
   flow-refined network, read off the [?snap] hook *)
let passed_list_exn ?budget ~domains net =
  let passed = ref [] in
  match
    Reach.explore ?budget ~domains
      ~snap:(fun p -> passed := p)
      (Ita_analysis.Flow.refine_network net)
      ~on_store:(fun _ -> ())
  with
  | `Complete stats -> (!passed, stats)
  | `Budget_exhausted _ -> Alcotest.fail "exploration should complete"

(* ------------------------------------------------------------------ *)
(* Satellite: the model-zoo differential suite                         *)
(* ------------------------------------------------------------------ *)

let zoo () =
  [
    ("two-phase", (let net, _, _ = Models.two_phase () in net));
    ("urgent-gate", fst (Models.urgent_gate ()));
    ("committed-gate", fst (Models.committed_gate ()));
    ("handshake", fst (Models.handshake ()));
    ("broadcast", Models.broadcast_pair ());
    ("wide-frontier", Models.wide_frontier ());
  ]

let check_antichains name net =
  (* identical stored contents across domain counts rely on subset
     subsumption, whose order is antisymmetric *)
  let seq_passed, seq_stats = passed_list_exn ~domains:1 net in
  let seq_fp = antichain_fp net seq_passed in
  Alcotest.(check int)
    (name ^ ": sequential stored = resident zones")
    (resident_zones seq_passed) seq_stats.Reach.stored;
  List.iter
    (fun d ->
      let passed, stats = passed_list_exn ~domains:d net in
      Alcotest.(check int)
        (Printf.sprintf "%s: stats.domains (d=%d)" name d)
        d stats.Reach.domains;
      Alcotest.(check int)
        (Printf.sprintf "%s: stored matches sequential (d=%d)" name d)
        seq_stats.Reach.stored stats.Reach.stored;
      Alcotest.(check int)
        (Printf.sprintf "%s: stored = resident zones (d=%d)" name d)
        (resident_zones passed) stats.Reach.stored;
      Alcotest.(check (list (pair string (list string))))
        (Printf.sprintf "%s: antichain contents (d=%d)" name d)
        seq_fp (antichain_fp net passed))
    [ 2; 4 ]

let test_zoo_antichains () =
  List.iter (fun (name, net) -> check_antichains name net) (zoo ())

let verdict = function
  | Reach.Reachable _ -> "reachable"
  | Reach.Unreachable _ -> "unreachable"
  | Reach.Budget_exhausted _ -> "budget"

let sup_fp ?(initial_ceiling = 64) ?(max_ceiling = 256) ~domains net ~at
    ~clock () =
  (* tiny ceilings, as in test_mc: model constants are all well below
     64, and the fingerprint only has to agree across domain counts *)
  match
    Wcrt.sup ~domains ~max_ceiling
      (Models.with_ceiling ~clock initial_ceiling net)
      ~at ~clock
  with
  | Wcrt.Sup { value; kind; _ } ->
      Printf.sprintf "sup %d %s" value
        (match kind with
        | Wcrt.Attained -> "attained"
        | Wcrt.Approached -> "approached")
  | Wcrt.Goal_unreachable _ -> "unreachable"
  | Wcrt.Sup_budget_exhausted _ -> "budget"
  | Wcrt.Sup_unbounded _ -> "unbounded"

let check_net_verdicts_and_wcrts name net =
  (* every location of every component: reachability of two guard
     thresholds and the sup of every clock must agree with the
     one-domain run at 2 and 4 domains *)
  let n_clocks = Array.length net.Network.clock_names in
  Array.iter
    (fun (a : Automaton.t) ->
      Array.iter
        (fun (l : Automaton.location) ->
          let at = Query.at net ~comp:a.Automaton.name ~loc:l.Automaton.loc_name in
          for x = 1 to n_clocks - 1 do
            List.iter
              (fun c ->
                let q = Query.with_guard at (Guard.clock_ge x c) in
                let seq = verdict (Reach.reach ~domains:1 net q) in
                List.iter
                  (fun d ->
                    Alcotest.(check string)
                      (Printf.sprintf "%s: verdict %s >= %d at %s.%s (d=%d)"
                         name net.Network.clock_names.(x) c a.Automaton.name
                         l.Automaton.loc_name d)
                      seq
                      (verdict (Reach.reach ~domains:d net q)))
                  [ 2; 4 ])
              [ 1; 7 ];
            let seq = sup_fp ~domains:1 net ~at ~clock:x () in
            List.iter
              (fun d ->
                Alcotest.(check string)
                  (Printf.sprintf "%s: sup %s at %s.%s (d=%d)" name
                     net.Network.clock_names.(x) a.Automaton.name
                     l.Automaton.loc_name d)
                  seq
                  (sup_fp ~domains:d net ~at ~clock:x ()))
              [ 2; 4 ]
          done)
        a.Automaton.locations)
    net.Network.automata

let test_zoo_verdicts_and_wcrts () =
  List.iter (fun (name, net) -> check_net_verdicts_and_wcrts name net) (zoo ())

(* ------------------------------------------------------------------ *)
(* Satellite: the radionav case study, differentially                  *)
(* ------------------------------------------------------------------ *)

let test_radionav_wcrt () =
  (* the cheap validated cells (see test_casestudy); values pinned so a
     wrong-but-consistent pair of domain counts cannot pass *)
  List.iter
    (fun (scen, req, expected) ->
      let sys = R.system R.Al_tmc R.Po in
      List.iter
        (fun d ->
          match
            (Ita_core.Analyze.wcrt ~domains:d sys ~scenario:scen
               ~requirement:req)
              .Ita_core.Analyze.outcome
          with
          | Ita_core.Analyze.Exact_wcrt v ->
              Alcotest.(check int)
                (Printf.sprintf "%s/%s (d=%d)" scen req d)
                expected v
          | _ -> Alcotest.failf "%s/%s (d=%d): expected exact WCRT" scen req d)
        [ 1; 2; 4 ])
    [ ("AddressLookup", "E2E", 79_075); ("HandleTMC", "TMC", 172_106) ]

(* the measured network of the al/po HandleTMC cell *)
let radionav_al_po () =
  let sys = R.system R.Al_tmc R.Po in
  let scenario = Ita_core.Sysmodel.scenario sys "HandleTMC" in
  let req = Ita_core.Scenario.requirement scenario "TMC" in
  (Ita_core.Gen.generate ~measure:("HandleTMC", req) sys).Ita_core.Gen.net

let test_radionav_antichains () =
  check_antichains "radionav al/po" (radionav_al_po ())

(* The passed list keeps each zone as its row over the state's live
   clocks.  The projection must lose nothing: every zone of the final
   passed list equals, entry for entry, a zone [on_store] was handed
   for the same state. *)
let check_snapshot_zones_stored name net =
  let net = Ita_analysis.Flow.refine_network net in
  List.iter
    (fun d ->
      let handed = Hashtbl.create 64 and passed = ref [] in
      let key (st : Semantics.state) = (st.Semantics.locs, st.Semantics.env) in
      (match
         Reach.explore ~domains:d
           ~snap:(fun p -> passed := p)
           net
           ~on_store:(fun (c : Semantics.config) ->
             let k = key c.Semantics.state in
             let zs = Option.value ~default:[] (Hashtbl.find_opt handed k) in
             Hashtbl.replace handed k (Dbm.copy c.Semantics.zone :: zs))
       with
      | `Complete _ -> ()
      | `Budget_exhausted _ -> Alcotest.fail "exploration should complete");
      Alcotest.(check bool)
        (Printf.sprintf "%s: snapshot not empty (d=%d)" name d)
        true (!passed <> []);
      List.iter
        (fun ((st : Semantics.state), zones) ->
          let stored =
            Option.value ~default:[] (Hashtbl.find_opt handed (key st))
          in
          List.iter
            (fun z ->
              if not (List.exists (Dbm.equal z) stored) then
                Alcotest.failf "%s (d=%d): a snapshot zone at %a was never stored"
                  name d (Semantics.pp_state net) st)
            zones)
        !passed)
    [ 1; 4 ]

let test_snapshot_zones_stored () =
  List.iter
    (fun (name, net) -> check_snapshot_zones_stored name net)
    (("radionav al/po", radionav_al_po ()) :: zoo ())

(* ------------------------------------------------------------------ *)
(* Satellite: random automata — 4 domains vs one vs the concrete oracle
   (generator mirrors test_mc's random diagonal-free nets)             *)
(* ------------------------------------------------------------------ *)

let gen_random_net =
  let open QCheck2.Gen in
  let gen_atom clock =
    let* rel = oneofl [ Guard.Lt; Guard.Le; Guard.Ge; Guard.Gt; Guard.Eq ] in
    let* c = int_range 0 8 in
    return (Guard.clock_rel clock rel (Expr.Int c))
  in
  let gen_guard =
    let* use_x = bool and* use_y = bool in
    let* gx = gen_atom 1 and* gy = gen_atom 2 in
    return
      (Guard.conj
         (if use_x then gx else Guard.tt)
         (if use_y then gy else Guard.tt))
  in
  let* nl = int_range 2 4 in
  let* invariants =
    list_repeat nl
      (let* inv = bool in
       let* c = int_range 1 8 in
       return (if inv then Guard.clock_le 1 c else Guard.tt))
  in
  let* n_edges = int_range nl (2 * nl) in
  let* edges =
    list_repeat n_edges
      (let* src = int_range 0 (nl - 1) and* dst = int_range 0 (nl - 1) in
       let* guard = gen_guard in
       let* reset_x = bool and* reset_y = bool in
       let update =
         List.concat
           [
             (if reset_x then Update.reset 1 else []);
             (if reset_y then Update.reset 2 else []);
           ]
       in
       return (Models.edge src dst ~guard ~update))
  in
  let b = Network.Builder.create () in
  let _x = Network.Builder.clock b "x" in
  let _y = Network.Builder.clock b "y" in
  let locations =
    List.mapi
      (fun i inv -> Models.loc (Printf.sprintf "L%d" i) ~invariant:inv)
      invariants
  in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P" ~locations ~edges ~initial:0);
  return (Network.Builder.build b, nl)

let test_random_nets_par_agree =
  QCheck2.Test.make ~count:40
    ~name:"parallel verdicts agree with sequential and cover concrete walks"
    QCheck2.Gen.(triple gen_random_net (int_range 0 10) (int_range 1 10_000))
    (fun ((net, nl), c, seed) ->
      let ok = ref true in
      (* verdict differential on every location *)
      for l = 0 to nl - 1 do
        let at = Query.at net ~comp:"P" ~loc:(Printf.sprintf "L%d" l) in
        let q = Query.with_guard at (Guard.clock_ge 2 c) in
        let seq = verdict (Reach.reach ~domains:1 net q) in
        let par = verdict (Reach.reach ~domains:4 net q) in
        if seq <> par then ok := false
      done;
      (* stored differential on the full zone graph *)
      let _, seq_stats = passed_list_exn ~domains:1 net in
      let _, par_stats = passed_list_exn ~domains:4 net in
      if seq_stats.Reach.stored <> par_stats.Reach.stored then ok := false;
      (* concrete oracle: a random walk is covered by the parallel
         cover *)
      let covered = Models.symbolic_cover ~domains:4 net in
      let walk = Models.safe_walk net ~seed ~steps:40 ~max_step_delay:7 in
      if not (List.for_all covered walk) then ok := false;
      !ok)

(* ------------------------------------------------------------------ *)
(* Satellite: determinism stress — 50 parallel runs must repeat the
   deterministic stats (stored, WCRT) bit for bit                      *)
(* ------------------------------------------------------------------ *)

let test_stress_deterministic_stats () =
  let net = Models.wide_frontier () in
  let at = Query.at net ~comp:"P0" ~loc:"B" in
  let base_passed, base_stats = passed_list_exn ~domains:4 net in
  let base_fp = antichain_fp net base_passed in
  let base_sup = sup_fp ~domains:4 net ~at ~clock:1 () in
  Alcotest.(check string) "sup value" "sup 5 attained" base_sup;
  for run = 1 to 50 do
    let passed, stats = passed_list_exn ~domains:4 net in
    Alcotest.(check int)
      (Printf.sprintf "run %d: stored deterministic" run)
      base_stats.Reach.stored stats.Reach.stored;
    Alcotest.(check (list (pair string (list string))))
      (Printf.sprintf "run %d: antichain deterministic" run)
      base_fp (antichain_fp net passed);
    Alcotest.(check string)
      (Printf.sprintf "run %d: WCRT deterministic" run)
      base_sup
      (sup_fp ~domains:4 net ~at ~clock:1 ())
  done

(* ------------------------------------------------------------------ *)
(* Satellite: stored counts resident states after parallel merges      *)
(* ------------------------------------------------------------------ *)

let test_stored_is_resident () =
  (* the per-shard subsume-check+insert is atomic, so concurrent
     comparable inserts must never double-count: stored must equal the
     zones actually resident in the dumped passed list, and match the
     one-domain count *)
  let net = Models.wide_frontier () in
  let passed, stats = passed_list_exn ~domains:4 net in
  Alcotest.(check int) "stored = resident zones" (resident_zones passed)
    stats.Reach.stored;
  let _, seq_stats = passed_list_exn ~domains:1 net in
  Alcotest.(check int) "parallel stored = sequential stored"
    seq_stats.Reach.stored stats.Reach.stored

(* ------------------------------------------------------------------ *)
(* Multicore plumbing: budgets, witnesses, defaults                    *)
(* ------------------------------------------------------------------ *)

let test_parallel_budget () =
  let net = Models.wide_frontier () in
  (match
     Reach.explore ~domains:4 ~budget:(Reach.states 1) net
       ~on_store:(fun _ -> ())
   with
  | `Budget_exhausted stats ->
      Alcotest.(check int) "domains in stats" 4 stats.Reach.domains
  | `Complete _ -> Alcotest.fail "a one-state budget must exhaust")

let test_parallel_witness () =
  let net, _x, y = Models.two_phase () in
  let q =
    Query.with_guard (Query.at net ~comp:"P" ~loc:"L2") (Guard.clock_ge y 6)
  in
  match Reach.reach ~domains:4 net q with
  | Reach.Reachable { witness; _ } -> (
      match witness with
      | [] -> Alcotest.fail "witness must be non-empty"
      | first :: _ ->
          Alcotest.(check bool)
            "witness starts at the initial state" true
            (first.Reach.via = Option.None))
  | _ -> Alcotest.fail "L2 with y >= 6 is reachable"

let test_default_domains_positive () =
  Alcotest.(check bool) "default_domains >= 1" true (Reach.default_domains () >= 1)

let () =
  Alcotest.run "par"
    [
      ( "differential",
        [
          Alcotest.test_case "zoo antichains" `Quick test_zoo_antichains;
          Alcotest.test_case "zoo verdicts and WCRTs" `Quick
            test_zoo_verdicts_and_wcrts;
          Alcotest.test_case "radionav WCRT cells" `Slow test_radionav_wcrt;
          Alcotest.test_case "radionav antichains" `Slow
            test_radionav_antichains;
          Alcotest.test_case "snapshot zones were stored" `Quick
            test_snapshot_zones_stored;
        ] );
      ( "random",
        [ QCheck_alcotest.to_alcotest test_random_nets_par_agree ] );
      ( "stress",
        [
          Alcotest.test_case "deterministic stats, 50 runs" `Slow
            test_stress_deterministic_stats;
          Alcotest.test_case "stored = resident after merges" `Quick
            test_stored_is_resident;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "budget exhaustion" `Quick test_parallel_budget;
          Alcotest.test_case "witness shape" `Quick test_parallel_witness;
          Alcotest.test_case "default domains" `Quick
            test_default_domains_positive;
        ] );
    ]
