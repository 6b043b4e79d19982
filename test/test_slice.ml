(* The cone-of-influence report (Slice) on hand-built networks, and
   the engine, which explores a query's whole network, on networks with
   parts outside the query's cone — the model zoo with its island, the
   station family, the shipped example models — and on the radionav
   case study, against the ExtraM reference explorer
   (Models.reference_reach / Models.reference_sup) at 1 and 4 worker
   domains. *)

open Ita_ta
open Ita_mc
module Slice = Ita_analysis.Slice
module R = Ita_casestudy.Radionav
module E = Ita_tafmt.Elaborate

let loc = Models.loc
let edge = Models.edge

let verdict = function
  | Reach.Reachable _ -> "reachable"
  | Reach.Unreachable _ -> "unreachable"
  | Reach.Budget_exhausted _ -> "budget"

let reference_verdict net q =
  if Models.reference_reach net q then "reachable" else "unreachable"

let sup_name = function
  | `Sup (v, Wcrt.Attained) -> Printf.sprintf "sup %d" v
  | `Sup (v, Wcrt.Approached) -> Printf.sprintf "sup %d (approached)" v
  | `Unreachable -> "unreachable"
  | `Unbounded -> "unbounded"
  | `Budget -> "budget"

(* Small ceilings: the zoo's and the examples' model constants are all
   well below 64.  The engine reaches 256 through smaller ceilings; the
   reference takes it at once. *)
let sup_fp ?domains net ~at ~clock () =
  sup_name
    (match
       Wcrt.sup ?domains ~max_ceiling:256
         (Models.with_ceiling ~clock 64 net)
         ~at ~clock
     with
    | Wcrt.Sup { value; kind; _ } -> `Sup (value, kind)
    | Wcrt.Goal_unreachable _ -> `Unreachable
    | Wcrt.Sup_budget_exhausted _ -> `Budget
    | Wcrt.Sup_unbounded _ -> `Unbounded)

let reference_sup_fp net ~at ~clock =
  sup_name (Models.reference_sup ~ceiling:256 net ~at ~clock)

(* the domain counts every differential runs the engine at *)
let configs = [ 1; 4 ]
let config_name d = Printf.sprintf "d=%d" d

(* ------------------------------------------------------------------ *)
(* Hand-built networks                                                 *)
(* ------------------------------------------------------------------ *)

(* P (queried) handshakes with R; Q is an island — Normal locations,
   no invariants, no synchronization, its own clock and variable — so
   Q, its clock and its variable are outside the cone, and the sync
   peer R is inside it. *)
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
  (Network.Builder.build b, z, v)

let test_island_cone () =
  let net, z, v = island_net () in
  let at = Query.at net ~comp:"P" ~loc:"L2" in
  let sl, snet, at' = Reach.slice_query (Reach.default_slicing ()) net at in
  Alcotest.(check (list int)) "Q outside" [ 1 ] sl.Slice.removed_comps;
  Alcotest.(check (list int)) "z outside" [ z ] sl.Slice.removed_clocks;
  Alcotest.(check (list int)) "v outside" [ v ] sl.Slice.removed_vars;
  Alcotest.(check bool) "no dead edge" true (sl.Slice.dead_edges = []);
  (* the report changes nothing: the explored network is the whole
     one, and the query keeps its indices *)
  Alcotest.(check int) "three automata explored" 3
    (Array.length snet.Network.automata);
  Alcotest.(check bool) "same query" true (at' == at);
  match Reach.reach net at with
  | Reach.Reachable { witness; _ } ->
      let last = List.nth witness (List.length witness - 1) in
      Alcotest.(check int) "P at L2" 2 last.Reach.state.Semantics.locs.(0)
  | _ -> Alcotest.fail "goal should be reachable"

let test_island_lint_cone () =
  let net, _, _ = island_net () in
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

(* A single component whose clocks x and y are always reset
   together, so they are always equal. *)
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

(* A measured server with two always-equal clocks plus sporadic
   clients outside the cone of any query on the server. *)
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

(* pp_report smoke: the report must name what lies outside the cone
   and carry the resolver's provenance prefix *)
let test_report () =
  let net, _, _ = island_net () in
  let at = Query.at net ~comp:"P" ~loc:"L2" in
  let sl, _, _ = Reach.slice_query (Reach.default_slicing ()) net at in
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
    [
      "model.ta:2:1: component Q is outside the query's cone";
      "clock z is outside the query's cone";
      "variable v is outside the query's cone";
      "the query's cone: 2/3 components, 1/2 clocks, 0/1 variables";
    ]

(* ------------------------------------------------------------------ *)
(* Differential: the model zoo, at 1 and 4 domains, against the
   reference explorer                                                  *)
(* ------------------------------------------------------------------ *)

let zoo () =
  [
    ("two-phase", (let net, _, _ = Models.two_phase () in net));
    ("urgent-gate", fst (Models.urgent_gate ()));
    ("committed-gate", fst (Models.committed_gate ()));
    ("handshake", fst (Models.handshake ()));
    ("broadcast", Models.broadcast_pair ());
    ("island", (let net, _, _ = island_net () in net));
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
                let base = reference_verdict net q in
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
            let base = reference_sup_fp net ~at ~clock:x in
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
              let base = reference_verdict net q in
              List.iter
                (fun domains ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s query %d [%s]" file i
                       (config_name domains))
                    base
                    (verdict (Reach.reach ~domains net q)))
                configs
          | E.Sup_q { clock; at } ->
              let base = reference_sup_fp net ~at ~clock in
              List.iter
                (fun domains ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s sup query %d [%s]" file i
                       (config_name domains))
                    base
                    (sup_fp ~domains net ~at ~clock ()))
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
         reference's single exploration would tell its values apart
         across periods; use a 1 s ceiling, which both WCRTs stay
         below *)
      (match
         Models.reference_sup ~ceiling:1_000_000 gen.Core.Gen.net
           ~at:obs.Core.Gen.seen ~clock:obs.Core.Gen.obs_clock
       with
      | `Sup (value, _) ->
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: reference explorer" scen req)
            expected value
      | _ -> Alcotest.failf "%s/%s: reference expected a finite sup" scen req);
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

let () =
  Alcotest.run "slice"
    [
      ( "unit",
        [
          Alcotest.test_case "island cone" `Quick test_island_cone;
          Alcotest.test_case "island lint pass" `Quick test_island_lint_cone;
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
    ]
