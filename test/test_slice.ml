(* Query-directed model reduction (Slice): unit tests of the cone and
   the quasi-equal merge on hand-built networks, and differential
   suites showing that the engine's always-on slicing changes no
   verdict and no WCRT — on the model zoo, on the shipped example
   models, on the radionav case study and on random automata checked
   against a concrete-walk oracle — at 1 and 4 worker domains.  The
   unsliced oracles are Models.unsliced_reach and Models.unsliced_sup. *)

open Ita_ta
open Ita_mc
module Slice = Ita_analysis.Slice
module Dbm = Ita_dbm.Dbm
module R = Ita_casestudy.Radionav
module E = Ita_tafmt.Elaborate

let loc = Models.loc
let edge = Models.edge

let verdict = function
  | Reach.Reachable _ -> "reachable"
  | Reach.Unreachable _ -> "unreachable"
  | Reach.Budget_exhausted _ -> "budget"

let unsliced_verdict net q =
  if Models.unsliced_reach net q then "reachable" else "unreachable"

let fp_of_sup = function
  | Wcrt.Sup { value; kind; _ } ->
      Printf.sprintf "sup %d %s" value
        (match kind with
        | Wcrt.Attained -> "attained"
        | Wcrt.Approached -> "approached")
  | Wcrt.Goal_unreachable _ -> "unreachable"
  | Wcrt.Sup_budget_exhausted _ -> "budget"
  | Wcrt.Sup_unbounded _ -> "unbounded"

let sup_fp ?(initial_ceiling = 64) ?(max_ceiling = 256) ?domains net ~at ~clock
    () =
  fp_of_sup
    (Wcrt.sup ?domains ~max_ceiling
       (Models.with_ceiling ~clock initial_ceiling net)
       ~at ~clock)

let unsliced_sup_fp ?(max_ceiling = 256) net ~at ~clock =
  fp_of_sup (Models.unsliced_sup ~max_ceiling net ~at ~clock)

(* the domain counts every differential compares against the unsliced
   oracle *)
let configs = [ 1; 4 ]
let config_name d = Printf.sprintf "d=%d" d

(* ------------------------------------------------------------------ *)
(* Hand-built networks                                                 *)
(* ------------------------------------------------------------------ *)

(* P (queried) handshakes with R; Q is an island — Normal locations,
   no invariants, no synchronization, its own clock and variable — so
   the cone must remove Q, its clock and its variable while keeping
   the sync peer R. *)
let island_net () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let z = Network.Builder.clock b "z" in
  let v = Network.Builder.int_var b "v" ~lo:0 ~hi:3 ~init:0 in
  let c = Network.Builder.channel b "c" Channel.Binary ~urgent:false in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:
         [
           loc "L0";
           loc "L1" ~invariant:(Guard.clock_le x 5);
           loc "L2" ~kind:Automaton.Committed;
         ]
       ~edges:
         [
           edge 0 1 ~sync:(Automaton.Send c) ~update:(Update.reset x);
           edge 1 2 ~guard:(Guard.clock_ge x 3);
         ]
       ~initial:0);
  Network.Builder.add_automaton b
    (Automaton.make ~name:"Q"
       ~locations:[ loc "K0" ]
       ~edges:
         [
           edge 0 0
             ~guard:(Guard.clock_ge z 2)
             ~update:(Update.reset z @ Update.set v (Expr.Int 1));
         ]
       ~initial:0);
  Network.Builder.add_automaton b
    (Automaton.make ~name:"R"
       ~locations:[ loc "M0"; loc "M1" ]
       ~edges:[ edge 0 1 ~sync:(Automaton.Recv c); edge 1 0 ]
       ~initial:0);
  (Network.Builder.build b, x, z, v)

let test_island_cone () =
  let net, x, z, v = island_net () in
  let at = Query.at net ~comp:"P" ~loc:"L2" in
  let sl, snet, _ = Reach.slice_query Reach.CoiMerge net at in
  Alcotest.(check (list int)) "Q removed" [ 1 ] sl.Slice.removed_comps;
  Alcotest.(check (list int)) "z removed" [ z ] sl.Slice.removed_clocks;
  Alcotest.(check (list int)) "v removed" [ v ] sl.Slice.removed_vars;
  Alcotest.(check bool) "not identity" false sl.Slice.identity;
  let sl_off, _, _ = Reach.slice_query Reach.Off net at in
  Alcotest.(check bool) "mode Off is the identity" true sl_off.Slice.identity;
  Alcotest.(check (option int)) "P mapped" (Some 0) (Slice.map_comp sl 0);
  Alcotest.(check (option int)) "Q unmapped" None (Slice.map_comp sl 1);
  Alcotest.(check (option int)) "R mapped" (Some 1) (Slice.map_comp sl 2);
  Alcotest.(check (option int)) "x kept" (Some 1) (Slice.map_clock sl x);
  Alcotest.(check (option int)) "z dropped" None (Slice.map_clock sl z);
  Alcotest.(check int) "two automata left" 2
    (Array.length snet.Network.automata);
  Alcotest.(check int) "one clock left" 2
    (Array.length snet.Network.clock_names);
  (* the verdict and the unmapped witness must look like the original
     network's: full-width location vector, Q frozen at its initial
     location, goal zone at the original DBM dimension *)
  Alcotest.(check string) "unsliced oracle" "reachable"
    (unsliced_verdict net at);
  match Reach.reach net at with
  | Reach.Reachable { witness; goal_zone; _ } ->
      let last = List.nth witness (List.length witness - 1) in
      let locs = last.Reach.state.Semantics.locs in
      Alcotest.(check int) "witness width" 3 (Array.length locs);
      Alcotest.(check int) "P at L2" 2 locs.(0);
      Alcotest.(check int) "Q frozen at K0" 0 locs.(1);
      Alcotest.(check int) "goal zone dimension" 3 (Dbm.dim goal_zone)
  | _ -> Alcotest.fail "goal should be reachable"

let test_island_lint_cone () =
  let net, _, _, _ = island_net () in
  let module D = Ita_analysis.Diagnostic in
  let module Lint = Ita_analysis.Lint in
  let cone_findings fs = D.by_pass D.Outside_cone fs in
  (* without observed components there is no query, hence no pass *)
  Alcotest.(check int) "no query, no cone findings" 0
    (List.length (cone_findings (Lint.run net)));
  let fs = cone_findings (Lint.run ~observed_comps:[ 0 ] net) in
  Alcotest.(check int) "one cone finding" 1 (List.length fs);
  match fs with
  | [ d ] ->
      Alcotest.(check string) "hint severity" "hint"
        (D.severity_name d.D.severity);
      Alcotest.(check bool) "at Q" true (d.D.site = D.Automaton_site 1)
  | _ -> assert false

(* A single component whose clocks x and y are always reset together:
   CoiMerge must merge y into x (one DBM dimension less) and change
   neither verdicts nor sups. *)
let twin_net () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let y = Network.Builder.clock b "y" in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"M"
       ~locations:
         [ loc "A"; loc "B" ~invariant:(Guard.clock_le x 4); loc "C" ]
       ~edges:
         [
           edge 0 1 ~update:(Update.reset x @ Update.reset y);
           edge 1 2 ~guard:(Guard.conj (Guard.clock_ge x 2) (Guard.clock_ge y 2));
           edge 2 0 ~update:(Update.reset x @ Update.reset y);
         ]
       ~initial:0);
  (Network.Builder.build b, x, y)

let test_twin_merge () =
  let net, x, y = twin_net () in
  let at = Query.at net ~comp:"M" ~loc:"C" in
  let sl, snet, _ = Reach.slice_query Reach.CoiMerge ~extra_clocks:[ y ] net at in
  Alcotest.(check bool) "y merged into x" true (sl.Slice.merged = [ (y, x) ]);
  Alcotest.(check int) "one clock left" 2
    (Array.length snet.Network.clock_names);
  Alcotest.(check (option int)) "y maps to x's slot" (Slice.map_clock sl x)
    (Slice.map_clock sl y);
  (* Coi alone must not merge *)
  let sl', _, _ = Reach.slice_query Reach.Coi ~extra_clocks:[ y ] net at in
  Alcotest.(check bool) "coi keeps both" true (sl'.Slice.merged = []);
  (* sup over the merged-away clock still answers, identically *)
  Alcotest.(check string) "sup y unchanged"
    (unsliced_sup_fp net ~at ~clock:y)
    (sup_fp net ~at ~clock:y ());
  (* the unmapped goal zone must pin the merged clocks equal *)
  match Reach.reach net at with
  | Reach.Reachable { goal_zone; _ } ->
      Alcotest.(check int) "goal zone dimension" 3 (Dbm.dim goal_zone);
      Alcotest.(check bool) "x = y in the unmapped zone" true
        (Dbm.get goal_zone x y = Ita_dbm.Bound.le 0
        && Dbm.get goal_zone y x = Ita_dbm.Bound.le 0)
  | _ -> Alcotest.fail "C should be reachable"

(* A measured server with a quasi-equal clock pair plus sporadic
   clients outside the cone: the slice's strict win, pinned as a test.
   Same sup as the unsliced oracle, strictly fewer explored states,
   strictly fewer clocks. *)
let station_net n =
  let b = Network.Builder.create () in
  let y = Network.Builder.clock b "y" in
  let y2 = Network.Builder.clock b "y2" in
  let clocks =
    Array.init n (fun i -> Network.Builder.clock b (Printf.sprintf "x%d" i))
  in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"Station"
       ~locations:
         [
           loc "Idle";
           loc "Busy" ~invariant:(Guard.clock_le y 10);
           loc "Done" ~kind:Automaton.Committed;
         ]
       ~edges:
         [
           edge 0 1 ~update:(Update.reset y @ Update.reset y2);
           edge 1 2
             ~guard:(Guard.conj (Guard.clock_ge y 5) (Guard.clock_ge y2 5));
           edge 2 0;
         ]
       ~initial:0);
  for i = 0 to n - 1 do
    let x = clocks.(i) in
    Network.Builder.add_automaton b
      (Automaton.make
         ~name:(Printf.sprintf "C%d" i)
         ~locations:[ loc "L" ]
         ~edges:
           [ edge 0 0 ~guard:(Guard.clock_ge x (3 + (2 * i))) ~update:(Update.reset x) ]
         ~initial:0)
  done;
  Network.Builder.build b

let test_station_strict_win () =
  let net = station_net 3 in
  let at = Query.at net ~comp:"Station" ~loc:"Done" in
  let clock = 1 (* y *) in
  let value_explored = function
    | Wcrt.Sup { value; stats; _ } -> (value, stats.Reach.explored)
    | _ -> Alcotest.fail "expected a finite sup"
  in
  (* both explorations extrapolate the measured clock at the engine's
     final ceiling: it starts at y's constant 10, which the sup (10)
     reaches, and settles at 40 *)
  let v_off, n_off =
    value_explored (Models.unsliced_sup ~max_ceiling:40 net ~at ~clock)
  in
  let v_on, n_on = value_explored (Wcrt.sup ~domains:1 net ~at ~clock) in
  Alcotest.(check int) "same WCRT" v_off v_on;
  Alcotest.(check bool)
    (Printf.sprintf "strictly fewer states (%d < %d)" n_on n_off)
    true (n_on < n_off);
  let sl, snet, _ = Reach.slice_query Reach.CoiMerge ~extra_clocks:[ clock ] net at in
  Alcotest.(check int) "all clients removed" 3
    (List.length sl.Slice.removed_comps);
  Alcotest.(check bool) "y2 merged" true (sl.Slice.merged = [ (2, 1) ]);
  Alcotest.(check int) "clocks 6 -> 2" 2
    (Array.length snet.Network.clock_names)

(* Every component of the handshake is in the cone of a query on S
   (R is S's binary peer), so the slice must be the identity — same
   network, same exploration, byte-identical stats. *)
let test_identity () =
  let net, z = Models.handshake () in
  let at = Query.at net ~comp:"S" ~loc:"P1" in
  let sl, _, at' = Reach.slice_query Reach.CoiMerge net at in
  Alcotest.(check bool) "identity" true sl.Slice.identity;
  Alcotest.(check bool) "same network" true (sl.Slice.net == net);
  Alcotest.(check bool) "same query" true (at' == at);
  let sl, _, _ = Reach.slice_query Reach.CoiMerge ~extra_clocks:[ z ] net at in
  Alcotest.(check bool) "sup slice is the identity" true sl.Slice.identity;
  (* one sup attempt at ceiling 64 on each side: the engine's sliced
     exploration and the oracle's unsliced one must be the same run *)
  let counts = function
    | Wcrt.Sup { stats; _ }
    | Wcrt.Goal_unreachable stats
    | Wcrt.Sup_budget_exhausted { stats; _ }
    | Wcrt.Sup_unbounded { stats; _ } ->
        (stats.Reach.explored, stats.Reach.stored, stats.Reach.transitions)
  in
  Alcotest.(check (triple int int int))
    "byte-identical exploration"
    (counts (Models.unsliced_sup ~max_ceiling:64 net ~at ~clock:z))
    (counts
       (Wcrt.sup ~domains:1 ~max_ceiling:64
          (Models.with_ceiling ~clock:z 64 net)
          ~at ~clock:z))

(* pp_report smoke: the report must mention the removals and carry the
   resolver's provenance prefix *)
let test_report () =
  let net, _, _, _ = island_net () in
  let at = Query.at net ~comp:"P" ~loc:"L2" in
  let sl, _, _ = Reach.slice_query Reach.CoiMerge net at in
  let resolve = function
    | Ita_analysis.Diagnostic.Automaton_site i ->
        Some (Printf.sprintf "model.ta:%d:1" (i + 1))
    | _ -> None
  in
  let report = Format.asprintf "%a" (Slice.pp_report ~resolve) sl in
  let has needle =
    let nl = String.length needle and rl = String.length report in
    let rec at i =
      if i + nl > rl then false
      else String.sub report i nl = needle || at (i + 1)
    in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "report mentions %S" needle)
        true (has needle))
    [ "model.ta:2:1"; "Q"; "z"; "v" ]

(* ------------------------------------------------------------------ *)
(* Differential: the model zoo, at 1 and 4 domains                     *)
(* ------------------------------------------------------------------ *)

let zoo () =
  [
    ("two-phase", (let net, _, _ = Models.two_phase () in net));
    ("urgent-gate", fst (Models.urgent_gate ()));
    ("committed-gate", fst (Models.committed_gate ()));
    ("handshake", fst (Models.handshake ()));
    ("broadcast", Models.broadcast_pair ());
    ("island", (let net, _, _, _ = island_net () in net));
    ("twin", (let net, _, _ = twin_net () in net));
  ]

let check_net_differential name net =
  let n_clocks = Array.length net.Network.clock_names in
  Array.iter
    (fun (a : Automaton.t) ->
      Array.iter
        (fun (l : Automaton.location) ->
          let at =
            Query.at net ~comp:a.Automaton.name ~loc:l.Automaton.loc_name
          in
          for x = 1 to n_clocks - 1 do
            List.iter
              (fun c ->
                let q = Query.with_guard at (Guard.clock_ge x c) in
                let base = unsliced_verdict net q in
                List.iter
                  (fun domains ->
                    Alcotest.(check string)
                      (Printf.sprintf "%s [%s]: verdict %s >= %d at %s.%s"
                         name (config_name domains)
                         net.Network.clock_names.(x) c a.Automaton.name
                         l.Automaton.loc_name)
                      base
                      (verdict (Reach.reach ~domains net q)))
                  configs)
              [ 1; 7 ];
            let base = unsliced_sup_fp net ~at ~clock:x in
            List.iter
              (fun domains ->
                Alcotest.(check string)
                  (Printf.sprintf "%s [%s]: sup %s at %s.%s" name
                     (config_name domains) net.Network.clock_names.(x)
                     a.Automaton.name l.Automaton.loc_name)
                  base
                  (sup_fp ~domains net ~at ~clock:x ()))
              configs
          done)
        a.Automaton.locations)
    net.Network.automata

let test_zoo_differential () =
  List.iter (fun (name, net) -> check_net_differential name net) (zoo ())

let test_station_differential () =
  check_net_differential "station" (station_net 2)

(* ------------------------------------------------------------------ *)
(* Differential: the shipped example models' own queries               *)
(* ------------------------------------------------------------------ *)

let model_path name =
  let candidates =
    [ "../examples/models/" ^ name; "examples/models/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "%s not found" name

let test_examples_differential () =
  List.iter
    (fun file ->
      let { E.net; queries; _ } = E.load_file (model_path file) in
      List.iteri
        (fun i q ->
          match q with
          | E.Reach_q q ->
              let base = unsliced_verdict net q in
              List.iter
                (fun domains ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s query %d [%s]" file i
                       (config_name domains))
                    base
                    (verdict (Reach.reach ~domains net q)))
                configs
          | E.Sup_q { clock; at } ->
              let base =
                unsliced_sup_fp ~max_ceiling:(1 lsl 40) net ~at ~clock
              in
              List.iter
                (fun domains ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s sup query %d [%s]" file i
                       (config_name domains))
                    base
                    (sup_fp ~initial_ceiling:1_000_000 ~max_ceiling:(1 lsl 40)
                       ~domains net ~at ~clock ()))
                configs
          | E.Deadlock_q -> ())
        queries)
    [ "fischer.ta"; "train_gate.ta"; "two_phase.ta"; "island_demo.ta" ]

(* ------------------------------------------------------------------ *)
(* Differential: the radionav case study's validated cells             *)
(* ------------------------------------------------------------------ *)

let test_radionav_differential () =
  let module Core = Ita_core in
  let sys = R.system R.Al_tmc R.Po in
  List.iter
    (fun (scen, req, expected) ->
      let s = Core.Sysmodel.scenario sys scen in
      let gen =
        Core.Gen.generate
          ~measure:(scen, Core.Scenario.requirement s req)
          sys
      in
      let obs = Option.get gen.Core.Gen.observer in
      (* the measured clock is pinned active, so at a 2^40 ceiling the
         oracle's single exploration would tell its values apart across
         periods; use a 1 s ceiling, which both WCRTs stay below *)
      (match
         Models.unsliced_sup ~max_ceiling:1_000_000 gen.Core.Gen.net
           ~at:obs.Core.Gen.seen ~clock:obs.Core.Gen.obs_clock
       with
      | Wcrt.Sup { value; _ } ->
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: unsliced oracle" scen req)
            expected value
      | _ -> Alcotest.failf "%s/%s: oracle expected a finite sup" scen req);
      List.iter
        (fun domains ->
          match
            (Core.Analyze.wcrt ~domains sys ~scenario:scen ~requirement:req)
              .Core.Analyze.outcome
          with
          | Core.Analyze.Exact_wcrt v ->
              Alcotest.(check int)
                (Printf.sprintf "%s/%s [%s]" scen req (config_name domains))
                expected v
          | _ -> Alcotest.failf "%s/%s: expected exact WCRT" scen req)
        configs)
    [ ("AddressLookup", "E2E", 79_075); ("HandleTMC", "TMC", 172_106) ]

(* ------------------------------------------------------------------ *)
(* Random automata: a queried component plus a removable island, with
   a concrete-walk oracle on the ORIGINAL network — any goal the walk
   hits must be reachable in the sliced exploration too.               *)
(* ------------------------------------------------------------------ *)

let gen_random_island_net =
  let open QCheck2.Gen in
  let gen_atom clock =
    let* rel = oneofl [ Guard.Lt; Guard.Le; Guard.Ge; Guard.Gt; Guard.Eq ] in
    let* c = int_range 0 8 in
    return (Guard.clock_rel clock rel (Expr.Int c))
  in
  let* nl = int_range 2 4 in
  let* invariants =
    list_repeat nl
      (let* inv = bool in
       let* c = int_range 1 8 in
       return (if inv then Guard.clock_le 1 c else Guard.tt))
  in
  let* n_edges = int_range nl (2 * nl) in
  let* p_edges =
    list_repeat n_edges
      (let* src = int_range 0 (nl - 1) and* dst = int_range 0 (nl - 1) in
       let* use_g = bool in
       let* g = gen_atom 1 in
       let* reset = bool in
       return
         (edge src dst
            ~guard:(if use_g then g else Guard.tt)
            ~update:(if reset then Update.reset 1 else [])))
  in
  (* the island: self-loops over its own clock, Normal locations only,
     so it is provably outside any cone rooted at P *)
  let* q_edges =
    let* lo = int_range 1 5 in
    return [ edge 0 0 ~guard:(Guard.clock_ge 2 lo) ~update:(Update.reset 2) ]
  in
  let b = Network.Builder.create () in
  let _x = Network.Builder.clock b "x" in
  let _z = Network.Builder.clock b "z" in
  let locations =
    List.mapi
      (fun i inv -> loc (Printf.sprintf "L%d" i) ~invariant:inv)
      invariants
  in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P" ~locations ~edges:p_edges ~initial:0);
  Network.Builder.add_automaton b
    (Automaton.make ~name:"Q" ~locations:[ loc "K0" ] ~edges:q_edges
       ~initial:0);
  return (Network.Builder.build b, nl)

let test_random_island =
  QCheck2.Test.make ~count:60
    ~name:"sliced verdicts agree with unsliced and with concrete walks"
    QCheck2.Gen.(triple gen_random_island_net (int_range 0 10) (int_range 1 10_000))
    (fun ((net, nl), c, seed) ->
      let ok = ref true in
      let walk = Models.safe_walk net ~seed ~steps:40 ~max_step_delay:7 in
      for l = 0 to nl - 1 do
        let at = Query.at net ~comp:"P" ~loc:(Printf.sprintf "L%d" l) in
        let q = Query.with_guard at (Guard.clock_ge 1 c) in
        let base = unsliced_verdict net q in
        List.iter
          (fun domains ->
            if verdict (Reach.reach ~domains net q) <> base then
              ok := false)
          configs;
        (* the oracle: a concrete state of the ORIGINAL network hitting
           the goal forces the sliced verdict to be reachable *)
        let concretely_hit =
          List.exists
            (fun (cc : Concrete.t) ->
              cc.Concrete.locs.(0) = l && cc.Concrete.clocks.(1) >= c)
            walk
        in
        if concretely_hit && verdict (Reach.reach net q) <> "reachable" then
          ok := false
      done;
      (* the island must actually be sliced away whenever the query
         does not observe it *)
      let at = Query.at net ~comp:"P" ~loc:"L0" in
      let sl, _, _ = Reach.slice_query Reach.CoiMerge net at in
      if sl.Slice.removed_comps <> [ 1 ] then ok := false;
      !ok)

let () =
  Alcotest.run "slice"
    [
      ( "unit",
        [
          Alcotest.test_case "island cone" `Quick test_island_cone;
          Alcotest.test_case "island lint pass" `Quick test_island_lint_cone;
          Alcotest.test_case "quasi-equal merge" `Quick test_twin_merge;
          Alcotest.test_case "station strict win" `Quick
            test_station_strict_win;
          Alcotest.test_case "identity fast path" `Quick test_identity;
          Alcotest.test_case "report provenance" `Quick test_report;
        ] );
      ( "differential",
        [
          Alcotest.test_case "model zoo" `Quick test_zoo_differential;
          Alcotest.test_case "station family" `Quick
            test_station_differential;
          Alcotest.test_case "example models" `Quick
            test_examples_differential;
          Alcotest.test_case "radionav cells" `Slow
            test_radionav_differential;
        ] );
      ( "random",
        [ QCheck_alcotest.to_alcotest test_random_island ] );
    ]
