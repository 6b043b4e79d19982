(* Dataflow-engine tests: the semantic lint passes on the shipped demo
   model (findings the purely syntactic passes cannot see), qcheck
   soundness of the inferred intervals and of the refined clock
   activity against concrete random walks, and the flow-refined LU
   bounds as a pure optimization — identical verdicts and WCRT values
   to the unrefined ExtraM oracle, and tables never looser than the
   builder's. *)

open Ita_ta
module Flow = Ita_analysis.Flow
module D = Ita_analysis.Diagnostic
module Lint = Ita_analysis.Lint
module Query = Ita_mc.Query
module E = Ita_tafmt.Elaborate

let loc = Models.loc
let edge = Models.edge

(* ------------------------------------------------------------------ *)
(* The shipped demo: dead edge, always-true guard and write-write race,
   all invisible to the syntactic passes.                              *)
(* ------------------------------------------------------------------ *)

let demo_path () =
  match
    List.find_opt Sys.file_exists [ "flow_demo.ta"; "test/flow_demo.ta" ]
  with
  | Some p -> p
  | None -> Alcotest.fail "flow_demo.ta not found"

let observed_of_queries queries =
  let clocks = ref [] and vars = ref [] in
  let add_guard (g : Guard.t) =
    List.iter
      (fun (a : Guard.atom) ->
        clocks := a.Guard.clock :: !clocks;
        vars := Expr.ivars a.Guard.bound @ !vars)
      g.Guard.clocks;
    vars := Expr.bvars g.Guard.data @ !vars
  in
  List.iter
    (function
      | E.Deadlock_q -> ()
      | E.Reach_q q -> add_guard q.Query.guard
      | E.Sup_q { clock; at } ->
          clocks := clock :: !clocks;
          add_guard at.Query.guard)
    queries;
  (!clocks, !vars)

let test_demo_semantic_passes () =
  let { E.net; queries; _ } = E.load_file (demo_path ()) in
  let observed_clocks, observed_vars = observed_of_queries queries in
  let findings = Lint.run ~observed_clocks ~observed_vars net in
  (* one dead edge (m == 3 at L1) plus the location it orphans *)
  Alcotest.(check int)
    "dead-edge findings" 2
    (List.length (D.by_pass D.Dead_edge findings));
  if D.by_pass D.Trivial_guard findings = [] then
    Alcotest.fail "expected always-true-guard hints";
  (match D.by_pass D.Sync_write_race findings with
  | [ d ] ->
      Alcotest.(check string)
        "race severity" "warning"
        (D.severity_name d.D.severity)
  | l -> Alcotest.failf "expected one sync-write-race, got %d" (List.length l));
  (* every warning-or-worse finding comes from a semantic pass: the
     syntactic linter alone accepts this model *)
  List.iter
    (fun (d : D.t) ->
      if
        D.compare_severity d.D.severity D.Warning >= 0
        && not (List.mem d.D.pass [ D.Dead_edge; D.Trivial_guard; D.Sync_write_race ])
      then Alcotest.failf "unexpected syntactic warning: %s" (D.pass_name d.D.pass))
    findings

let test_demo_intervals () =
  let { E.net; _ } = E.load_file (demo_path ()) in
  let fa = Flow.analyze net in
  let var name =
    let names = net.Network.var_names in
    let rec go i = if names.(i) = name then i else go (i + 1) in
    go 0
  in
  let m = var "m" and v = var "v" in
  Alcotest.(check bool) "L2 flow-unreachable" false (Flow.reachable fa 0 2);
  (match Flow.env_at fa 0 1 with
  | Some env -> Alcotest.(check (pair int int)) "m at A.L1" (1, 1) env.(m)
  | None -> Alcotest.fail "A.L1 should be reachable");
  let g = Flow.global_ranges fa in
  Alcotest.(check (pair int int)) "global m" (0, 1) g.(m);
  Alcotest.(check (pair int int)) "global v" (0, 2) g.(v);
  (* v is written on both sides of the handshake: unstable everywhere *)
  Alcotest.(check bool) "v unstable for A" false (Flow.stable_var fa 0 v);
  Alcotest.(check bool) "m stable for A" true (Flow.stable_var fa 0 m)

(* ------------------------------------------------------------------ *)
(* Interval soundness: on random networks, every variable valuation a
   concrete random walk visits lies inside the inferred per-location
   interval of every component and inside the global ranges.  Updates
   are self-clamping (Ite-guarded), so walks never trip the runtime
   range check and the declared range stays deliberately loose — the
   analysis has something real to tighten.  The networks carry two
   clocks, lower- and upper-bound guards and invariants, clock bounds
   read from the variable and resets of either clock, so the L/U and
   activity tables see constants above 1 and clocks that are dead
   somewhere.                                                          *)
(* ------------------------------------------------------------------ *)

let build_random ~hi ~init ~sync ~invariants ~edges =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let y = Network.Builder.clock b "y" in
  let v = Network.Builder.int_var b "v" ~lo:0 ~hi ~init in
  let c =
    if sync then Some (Network.Builder.channel b "c" Channel.Binary ~urgent:false)
    else None
  in
  let bump =
    Update.set v Expr.(Ite (Cmp (Lt, Var v, Int hi), Add (Var v, Int 1), Var v))
  in
  let drop =
    Update.set v Expr.(Ite (Cmp (Gt, Var v, Int 0), Sub (Var v, Int 1), Var v))
  in
  let guard_of gk k =
    match gk with
    | 0 -> Guard.tt
    | 1 -> Guard.data Expr.(Cmp (Le, Var v, Int k))
    | 2 -> Guard.data Expr.(Cmp (Ge, Var v, Int k))
    | 3 -> Guard.clock_ge x 1
    | 4 -> Guard.clock_rel x Guard.Le (Expr.Var v)
    | 5 -> Guard.clock_rel y Guard.Ge (Expr.Var v)
    | _ -> Guard.clock_le y k
  in
  let update_of uk k =
    match uk with
    | 0 -> Update.none
    | 1 -> Update.set v (Expr.Int k)
    | 2 -> bump
    | _ -> drop
  in
  let reset_of = function
    | 0 -> Update.none
    | 1 -> Update.reset x
    | _ -> Update.reset y
  in
  let invariant_of (ik, k) =
    match ik with
    | 0 -> Guard.tt
    | 1 -> Guard.clock_le x (k + 1)
    | _ -> Guard.clock_le y (k + 1)
  in
  let a_edges =
    List.map
      (fun (src, dst, gk, uk, rk, k) ->
        edge src dst ~guard:(guard_of gk k)
          ~update:(Update.seq [ update_of uk k; reset_of rk ]))
      edges
    @
    match c with
    | Some ch ->
        [
          edge 0 0 ~sync:(Automaton.Send ch) ~guard:(Guard.clock_ge x 1)
            ~update:(Update.reset x);
        ]
    | None -> []
  in
  let locations =
    List.mapi
      (fun i inv -> loc (Printf.sprintf "L%d" i) ~invariant:(invariant_of inv))
      invariants
  in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"A" ~locations ~edges:a_edges ~initial:0);
  (match c with
  | Some ch ->
      Network.Builder.add_automaton b
        (Automaton.make ~name:"B" ~locations:[ loc "M" ]
           ~edges:[ edge 0 0 ~sync:(Automaton.Recv ch) ~update:bump ]
           ~initial:0)
  | None -> ());
  Network.Builder.build b

let gen_random_flow_net =
  let open QCheck2.Gen in
  let* n_locs = int_range 2 4 in
  let* hi = int_range 1 6 in
  let* init = int_range 0 hi in
  let* sync = bool in
  let* invariants =
    list_repeat n_locs (pair (int_range 0 2) (int_range 0 hi))
  in
  let* edges =
    list_size (int_range 3 6)
      (let* src = int_range 0 (n_locs - 1) and* dst = int_range 0 (n_locs - 1) in
       let* gk = int_range 0 6 and* uk = int_range 0 3 and* rk = int_range 0 2 in
       let* k = int_range 0 hi in
       return (src, dst, gk, uk, rk, k))
  in
  return (build_random ~hi ~init ~sync ~invariants ~edges)

let interval_sound net seed =
  let fa = Flow.analyze net in
  let g = Flow.global_ranges fa in
  let within ranges (env : int array) =
    let ok = ref true in
    Array.iteri
      (fun v x ->
        let lo, hi = ranges.(v) in
        if x < lo || x > hi then ok := false)
      env;
    !ok
  in
  let walk = Models.safe_walk net ~seed ~steps:50 ~max_step_delay:4 in
  List.for_all
    (fun (c : Concrete.t) ->
      within g c.Concrete.env
      && Array.for_all (fun i -> i)
           (Array.init
              (Array.length net.Network.automata)
              (fun i ->
                Flow.reachable fa i c.Concrete.locs.(i)
                &&
                match Flow.env_at fa i c.Concrete.locs.(i) with
                | None -> false
                | Some env -> within env c.Concrete.env)))
    walk

let test_intervals_sound =
  QCheck2.Test.make ~count:80
    ~name:"concrete valuations lie inside inferred intervals"
    QCheck2.Gen.(pair gen_random_flow_net (int_range 1 10_000))
    (fun (net, seed) -> interval_sound net seed)

(* ------------------------------------------------------------------ *)
(* Flow-refined LU differential, apart from the engine: the reference
   explorer with Extra+LU over the refined tables must agree on every
   verdict and WCRT value with the same explorer under ExtraM, which
   reads the builder's classical constants [k] (never rewritten by the
   refinement).  test_mc checks the engine itself against the ExtraM
   reference explorer.                                                 *)
(* ------------------------------------------------------------------ *)

let sup_name = function
  | `Sup (v, Ita_cert.Cert.Attained) -> Printf.sprintf "sup %d" v
  | `Sup (v, Ita_cert.Cert.Approached) -> Printf.sprintf "sup %d (approached)" v
  | `Unreachable -> "unreachable"
  | `Unbounded -> "unbounded"

(* [refined] is [Flow.refine_network net].  The zoo's and the examples'
   model constants are all well below the ceiling. *)
let check_sup_agrees msg ~refined net ~at ~clock =
  let ceiling = 256 in
  Alcotest.(check string)
    msg
    (sup_name (Models.reference_sup ~ceiling net ~at ~clock))
    (sup_name (Models.reference_sup ~lu:true ~ceiling refined ~at ~clock))

let check_net_bounds_agree name net =
  let refined = Flow.refine_network net in
  let n_clocks = Array.length net.Network.clock_names in
  Array.iter
    (fun (a : Automaton.t) ->
      Array.iter
        (fun (l : Automaton.location) ->
          let at =
            Query.at net ~comp:a.Automaton.name ~loc:l.Automaton.loc_name
          in
          for x = 1 to n_clocks - 1 do
            check_sup_agrees
              (Printf.sprintf "%s: sup %s at %s.%s" name
                 net.Network.clock_names.(x) a.Automaton.name
                 l.Automaton.loc_name)
              ~refined net ~at ~clock:x
          done)
        a.Automaton.locations)
    net.Network.automata

let test_bounds_agree_on_models () =
  List.iter
    (fun (name, net) -> check_net_bounds_agree name net)
    [
      ("two-phase", (let net, _, _ = Models.two_phase () in net));
      ("urgent-gate", fst (Models.urgent_gate ()));
      ("committed-gate", fst (Models.committed_gate ()));
      ("handshake", fst (Models.handshake ()));
      ("broadcast", Models.broadcast_pair ());
    ]

let model_path name =
  let candidates =
    [ "../examples/models/" ^ name; "examples/models/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "%s not found" name

let test_bounds_agree_on_examples () =
  List.iter
    (fun file ->
      let { E.net; queries; _ } = E.load_file (model_path file) in
      let refined = Flow.refine_network net in
      List.iteri
        (fun i q ->
          match q with
          | E.Reach_q q ->
              Alcotest.(check bool)
                (Printf.sprintf "%s query %d reachable" file i)
                (Models.reference_reach net q)
                (Models.reference_reach ~lu:true refined q)
          | E.Sup_q { clock; at } ->
              check_sup_agrees
                (Printf.sprintf "%s sup query %d" file i)
                ~refined net ~at ~clock
          | E.Deadlock_q -> ())
        queries)
    [ "fischer.ta"; "train_gate.ta"; "two_phase.ta" ]

(* Refined bounds may only tighten: on random networks every entry of
   the refined L/U tables is at most the builder's classical constant
   [k] of its clock, and [k], which the ExtraM oracle reads, is
   untouched.                                                          *)
let test_bounds_never_hurt =
  QCheck2.Test.make ~count:80
    ~name:"flow-refined bounds never exceed the builder's"
    gen_random_flow_net
    (fun net ->
      let refined = Flow.refine_network net in
      let below_k (t : int array array array) =
        Array.for_all
          (Array.for_all (Array.for_all2 ( >= ) net.Network.k))
          t
      in
      below_k refined.Network.lloc
      && below_k refined.Network.uloc
      && refined.Network.k = net.Network.k)

(* The zoo's differential on random networks: Extra+LU over the
   refined tables against ExtraM, for every clock at every location. *)
let test_bounds_agree_on_random =
  QCheck2.Test.make ~count:40 ~name:"wcrt agrees on random networks"
    gen_random_flow_net
    (fun net ->
      check_net_bounds_agree "random" net;
      true)

(* The concrete-walk coverage oracle on the refined tables: every
   configuration a random walk visits lies in a zone the engine stored
   over [Flow.refine_network net].  It fails if the refined activity
   normalizes a clock that a later guard or invariant reads. *)
let test_refined_cover =
  QCheck2.Test.make ~count:60 ~name:"refined activity covers concrete walks"
    QCheck2.Gen.(pair gen_random_flow_net (int_range 1 10_000))
    (fun (net, seed) ->
      List.for_all (Models.symbolic_cover net)
        (Models.safe_walk net ~seed ~steps:40 ~max_step_delay:7))

(* The random networks must exercise what the properties above check:
   a refined L/U entry above 1, and a clock inactive at a flow-reachable
   location. *)
let test_generator_exercises_tables () =
  let nets =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 19 |]) ~n:100
      gen_random_flow_net
  in
  let refined =
    List.map
      (fun net ->
        let fa = Flow.analyze net in
        (fa, Flow.refine_lu fa net))
      nets
  in
  let above_1 (t : int array array array) =
    Array.exists (Array.exists (Array.exists (fun c -> c > 1))) t
  in
  let dead_clock (fa, (r : Network.t)) =
    let found = ref false in
    Array.iteri
      (fun i rows ->
        Array.iteri
          (fun l row ->
            if Flow.reachable fa i l then
              for x = 1 to Array.length row - 1 do
                if not row.(x) then found := true
              done)
          rows)
      r.Network.active;
    !found
  in
  Alcotest.(check bool) "an L/U entry above 1" true
    (List.exists
       (fun (_, (r : Network.t)) -> above_1 r.Network.lloc || above_1 r.Network.uloc)
       refined);
  Alcotest.(check bool) "a clock inactive at a reachable location" true
    (List.exists dead_clock refined)

let () =
  Alcotest.run "flow"
    [
      ( "semantic-lint",
        [
          Alcotest.test_case "demo model fires the semantic passes" `Quick
            test_demo_semantic_passes;
          Alcotest.test_case "demo model intervals" `Quick test_demo_intervals;
        ] );
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest test_intervals_sound;
          QCheck_alcotest.to_alcotest test_refined_cover;
        ] );
      ( "bounds-differential",
        [
          Alcotest.test_case "wcrt agrees on model zoo" `Quick
            test_bounds_agree_on_models;
          Alcotest.test_case "verdicts agree on examples" `Quick
            test_bounds_agree_on_examples;
          QCheck_alcotest.to_alcotest test_bounds_never_hurt;
          QCheck_alcotest.to_alcotest test_bounds_agree_on_random;
          Alcotest.test_case "random networks exercise the tables" `Quick
            test_generator_exercises_tables;
        ] );
    ]
