(* Tests for the model checker: reachability verdicts, search orders,
   traces and the WCRT drivers, all on models with known answers. *)

open Ita_ta
open Ita_mc
module Bound = Ita_dbm.Bound

let guard_y_ge y c = Guard.clock_ge y c

(* ------------------------------------------------------------------ *)
(* Reachability on the two-phase model: at L2, y in [5, 6]             *)
(* ------------------------------------------------------------------ *)

let reach_two_phase order c =
  let net, _x, y = Models.two_phase () in
  let q = Query.with_guard (Query.at net ~comp:"P" ~loc:"L2") (guard_y_ge y c) in
  Reach.reach ~order net q

let test_reachable order () =
  match reach_two_phase order 6 with
  | Reach.Reachable { witness; _ } ->
      Alcotest.(check int) "witness has 3 states" 3 (List.length witness)
  | _ -> Alcotest.fail "y >= 6 should be reachable at L2"

let test_unreachable order () =
  match reach_two_phase order 7 with
  | Reach.Unreachable _ -> ()
  | _ -> Alcotest.fail "y >= 7 should be unreachable at L2"

let test_goal_zone () =
  (* goal-zone exactness is an ExtraM property: Extra+LU may blur the
     upper bound of a clock above its (query-bumped) L constant, which
     is sound for verdicts but coarsens the returned zone *)
  let net, _x, y = Models.two_phase () in
  let q = Query.at net ~comp:"P" ~loc:"L2" in
  let q = Query.with_guard q (guard_y_ge y 5) in
  match Reach.reach ~abstraction:Reach.ExtraM net q with
  | Reach.Reachable { goal_zone; _ } ->
      Alcotest.(check bool) "goal zone bounded by 6" true
        (Bound.compare (Ita_dbm.Dbm.sup goal_zone y) (Bound.le 6) <= 0)
  | _ -> Alcotest.fail "should be reachable"

let test_goal_zone_lu () =
  (* under the default Extra+LU the verdict is identical and the goal
     zone still contains every exact goal valuation ([y] up to 6),
     though possibly more *)
  let net, _x, y = Models.two_phase () in
  let q = Query.at net ~comp:"P" ~loc:"L2" in
  let q = Query.with_guard q (guard_y_ge y 5) in
  match Reach.reach net q with
  | Reach.Reachable { goal_zone; _ } ->
      Alcotest.(check bool) "goal zone covers the exact sup" true
        (Bound.compare (Bound.le 6) (Ita_dbm.Dbm.sup goal_zone y) <= 0)
  | _ -> Alcotest.fail "should be reachable"

let test_budget () =
  let net, _x, y = Models.two_phase () in
  let q = Query.with_guard (Query.at net ~comp:"P" ~loc:"L2") (guard_y_ge y 7) in
  match Reach.reach ~budget:(Reach.states 1) net q with
  | Reach.Budget_exhausted _ -> ()
  | _ -> Alcotest.fail "budget of 1 state must be exhausted"

(* ------------------------------------------------------------------ *)
(* WCRT drivers                                                        *)
(* ------------------------------------------------------------------ *)

let test_sup_two_phase () =
  let net, _x, y = Models.two_phase () in
  match Wcrt.sup net ~at:(Query.at net ~comp:"P" ~loc:"L2") ~clock:y with
  | Wcrt.Sup { value; kind; _ } ->
      Alcotest.(check int) "sup y = 6" 6 value;
      Alcotest.(check bool) "attained" true (kind = Wcrt.Attained)
  | _ -> Alcotest.fail "sup should be found"

let test_sup_unreachable_goal () =
  let net, _z = Models.handshake () in
  (* S.P1 is reachable, but let's query a location that is not: R.Q1
     with S.P1 never coexist *)
  let q =
    Query.conj (Query.at net ~comp:"S" ~loc:"P1") (Query.at net ~comp:"R" ~loc:"Q1")
  in
  let z = Network.clock_index net "z" in
  match Wcrt.sup net ~at:q ~clock:z with
  | Wcrt.Goal_unreachable _ -> ()
  | _ -> Alcotest.fail "P1 && Q1 should be unreachable"

let test_sup_needs_ceiling_growth () =
  (* with a tiny initial ceiling the driver must retry and still land
     on the exact answer *)
  let net, _x, y = Models.two_phase () in
  match
    Wcrt.sup ~initial_ceiling:2 net
      ~at:(Query.at net ~comp:"P" ~loc:"L2")
      ~clock:y
  with
  | Wcrt.Sup { value; _ } -> Alcotest.(check int) "sup y = 6" 6 value
  | _ -> Alcotest.fail "sup should be found"

let test_binary_search () =
  let net, _x, y = Models.two_phase () in
  let r =
    Wcrt.binary_search ~hi:8 net
      ~at:(Query.at net ~comp:"P" ~loc:"L2")
      ~clock:y
  in
  Alcotest.(check (option int)) "lower = 6" (Some 6) r.Wcrt.lower;
  Alcotest.(check (option int)) "upper = 7" (Some 7) r.Wcrt.upper

let test_binary_search_agrees_with_sup =
  QCheck2.Test.make ~count:20 ~name:"binary search = sup on random deadlines"
    QCheck2.Gen.(int_range 1 6)
    (fun ub ->
      (* vary the upper guard bound of the first edge: sup becomes
         ub + 4 *)
      let b = Network.Builder.create () in
      let x = Network.Builder.clock b "x" in
      let y = Network.Builder.clock b "y" in
      let p =
        Automaton.make ~name:"P"
          ~locations:
            [
              Models.loc "L0";
              Models.loc "L1" ~invariant:(Guard.clock_le x 4);
              Models.loc "L2" ~kind:Automaton.Committed;
            ]
          ~edges:
            [
              Models.edge 0 1 ~guard:(Guard.clock_le x ub)
                ~update:(Update.reset x);
              Models.edge 1 2 ~guard:(Guard.clock_eq x 4);
            ]
          ~initial:0
      in
      Network.Builder.add_automaton b p;
      let net = Network.Builder.build b in
      let at = Query.at net ~comp:"P" ~loc:"L2" in
      let sup_val =
        match Wcrt.sup net ~at ~clock:y with
        | Wcrt.Sup { value; _ } -> value
        | _ -> -1
      in
      let bs = Wcrt.binary_search ~hi:4 net ~at ~clock:y in
      sup_val = ub + 4 && bs.Wcrt.lower = Some sup_val)

let test_probe_lower () =
  let net, _x, y = Models.two_phase () in
  let r =
    Wcrt.probe_lower ~order:Reach.Dfs net
      ~at:(Query.at net ~comp:"P" ~loc:"L2")
      ~clock:y ~budget:Reach.no_budget ~start:1 ~step:1
  in
  Alcotest.(check (option int)) "probe climbs to 6" (Some 6) r.Wcrt.lower

(* ------------------------------------------------------------------ *)
(* WCRT drivers under exhausted budgets                                *)
(* ------------------------------------------------------------------ *)

let test_binary_search_budget_starved () =
  (* one state is never enough even to decide c = 0: the search must
     stop immediately and admit it knows nothing *)
  let net, _x, y = Models.two_phase () in
  let r =
    Wcrt.binary_search ~budget:(Reach.states 1) ~hi:8 net
      ~at:(Query.at net ~comp:"P" ~loc:"L2")
      ~clock:y
  in
  Alcotest.(check (option int)) "no lower bound" None r.Wcrt.lower;
  Alcotest.(check (option int)) "no upper bound" None r.Wcrt.upper;
  Alcotest.(check int) "stopped after the first probe" 1 r.Wcrt.runs

let test_binary_search_budget_sound =
  QCheck2.Test.make ~count:30 ~name:"binary search sound under any budget"
    QCheck2.Gen.(int_range 1 8)
    (fun b ->
      (* whatever partial bounds survive the budget must bracket the
         true sup (6, first unreachable 7) *)
      let net, _x, y = Models.two_phase () in
      let r =
        Wcrt.binary_search ~budget:(Reach.states b) ~hi:8 net
          ~at:(Query.at net ~comp:"P" ~loc:"L2")
          ~clock:y
      in
      let lower_ok =
        match r.Wcrt.lower with None -> true | Some l -> l >= 0 && l <= 6
      in
      let upper_ok =
        match r.Wcrt.upper with None -> true | Some u -> u >= 7
      in
      let ordered =
        match (r.Wcrt.lower, r.Wcrt.upper) with
        | Some l, Some u -> l < u
        | _ -> true
      in
      r.Wcrt.runs >= 1 && lower_ok && upper_ok && ordered)

let test_sup_budget_exhausted () =
  let net, _x, y = Models.two_phase () in
  match
    Wcrt.sup ~budget:(Reach.states 1) net
      ~at:(Query.at net ~comp:"P" ~loc:"L2")
      ~clock:y
  with
  | Wcrt.Sup_budget_exhausted { observed; _ } -> (
      (* anything observed before the cut-off is a sound lower bound *)
      match observed with
      | None -> ()
      | Some v ->
          Alcotest.(check bool) "observed <= true sup" true (v <= 6))
  | _ -> Alcotest.fail "a one-state budget must exhaust"

let test_probe_lower_monotone =
  QCheck2.Test.make ~count:50 ~name:"probe_lower climbs to start + k*step"
    QCheck2.Gen.(pair (int_range 0 6) (int_range 1 4))
    (fun (start, step) ->
      (* goal && y >= c is reachable exactly for c <= 6, so the climb
         must end on the largest start + i*step below that line *)
      let net, _x, y = Models.two_phase () in
      let r =
        Wcrt.probe_lower ~order:Reach.Dfs net
          ~at:(Query.at net ~comp:"P" ~loc:"L2")
          ~clock:y ~budget:Reach.no_budget ~start ~step
      in
      r.Wcrt.lower = Some (start + (step * ((6 - start) / step))))

(* ------------------------------------------------------------------ *)
(* Search orders agree on verdicts                                     *)
(* ------------------------------------------------------------------ *)

let test_orders_agree () =
  let orders = [ Reach.Bfs; Reach.Dfs; Reach.Random_dfs 42; Reach.Random_dfs 7 ] in
  List.iter
    (fun order ->
      (match reach_two_phase order 6 with
      | Reach.Reachable _ -> ()
      | _ -> Alcotest.fail "reachable verdict must not depend on order");
      match reach_two_phase order 7 with
      | Reach.Unreachable _ -> ()
      | _ -> Alcotest.fail "unreachable verdict must not depend on order")
    orders

(* ------------------------------------------------------------------ *)
(* Urgency and committed end-to-end                                    *)
(* ------------------------------------------------------------------ *)

let test_urgent_reach () =
  let net, z = Models.urgent_gate () in
  (* while U has not yet taken its urgent edge, time may not pass
     beyond the moment the flag was raised (z == 5) *)
  let pending =
    Query.conj (Query.at net ~comp:"U" ~loc:"L0") (Query.at net ~comp:"T" ~loc:"M1")
  in
  (match Reach.reach net (Query.with_guard pending (Guard.clock_ge z 5)) with
  | Reach.Reachable _ -> ()
  | _ -> Alcotest.fail "flag raised at z == 5 must be reachable");
  match Reach.reach net (Query.with_guard pending (Guard.clock_gt z 5)) with
  | Reach.Unreachable _ -> ()
  | _ -> Alcotest.fail "urgency must pin z to exactly 5"

let test_committed_reach () =
  let net, w = Models.committed_gate () in
  let at_k1 = Query.at net ~comp:"A" ~loc:"K1" in
  (* K1 is entered at w == 3 and is committed, so time never passes
     there *)
  (match Reach.reach net (Query.with_guard at_k1 (Guard.clock_eq w 3)) with
  | Reach.Reachable _ -> ()
  | _ -> Alcotest.fail "A.K1 at w == 3 must be reachable");
  (match Reach.reach net (Query.with_guard at_k1 (Guard.clock_gt w 3)) with
  | Reach.Unreachable _ -> ()
  | _ -> Alcotest.fail "committed location must stop time");
  (* B may move before A commits, so B.N1 && A.K1 is reachable in that
     order — the blocking of B *while* A is committed is covered by the
     successor-level test in test_ta *)
  let q =
    Query.conj (Query.at net ~comp:"B" ~loc:"N1") (Query.at net ~comp:"A" ~loc:"K1")
  in
  match Reach.reach net q with
  | Reach.Reachable _ -> ()
  | _ -> Alcotest.fail "B-then-A interleaving must exist"

(* ------------------------------------------------------------------ *)
(* Witness sanity: consecutive states connected, first is initial      *)
(* ------------------------------------------------------------------ *)

let test_witness_structure () =
  let net, _x, y = Models.two_phase () in
  let q = Query.with_guard (Query.at net ~comp:"P" ~loc:"L2") (guard_y_ge y 6) in
  match Reach.reach net q with
  | Reach.Reachable { witness; _ } -> (
      match witness with
      | { via = None; state = s0 } :: rest ->
          Alcotest.(check int) "starts at L0" 0 s0.Semantics.locs.(0);
          List.iter
            (fun { Reach.via; _ } ->
              if via = None then Alcotest.fail "only the root lacks a label")
            rest
      | _ -> Alcotest.fail "witness must start with the initial state")
  | _ -> Alcotest.fail "should be reachable"

(* ------------------------------------------------------------------ *)
(* Concrete-vs-symbolic cross-validation: every state visited by a
   random concrete execution must be covered by some explored zone
   with the same discrete part.  This exercises the entire abstraction
   stack: delay closure, urgency, committedness, broadcast semantics,
   extrapolation and active-clock reduction.                           *)
(* ------------------------------------------------------------------ *)

(* A concrete valuation as a one-point zone, for simulation-aware
   coverage checks. *)
let point_zone v =
  let z = Ita_dbm.Dbm.zero (Array.length v - 1) in
  for i = 1 to Array.length v - 1 do
    Ita_dbm.Dbm.reset z i v.(i)
  done;
  z

let symbolic_cover net =
  let store = Hashtbl.create 256 in
  (match
     Reach.explore net ~on_store:(fun (cfg : Semantics.config) ->
         let key = (cfg.Semantics.state.Semantics.locs, cfg.Semantics.state.Semantics.env) in
         let zones = try Hashtbl.find store key with Not_found -> [] in
         Hashtbl.replace store key (cfg.Semantics.zone :: zones))
   with
  | `Complete _ -> ()
  | `Budget_exhausted _ -> Alcotest.fail "exploration should complete");
  (* Under [LuSim] (e.g. the TAMC_ABSTRACTION=lusim CI leg) stored
     zones are exact and pruned up to a◁LU simulation, so a concrete
     state need only be covered up to a◁LU of some stored zone — the
     point-zone le_lu test, over the same flow-refined bounds the
     engine subsumed with.  Under the extrapolations, stored zones are
     supersets of the exact ones and plain membership must hold. *)
  let lusim_net =
    match Reach.default_abstraction () with
    | Reach.LuSim ->
        Some (Ita_analysis.Flow.(refine_lu (analyze net) net))
    | Reach.ExtraM | Reach.ExtraLU -> None
  in
  fun (c : Concrete.t) ->
    (* the engine pins dead clocks at 0; normalize the concrete
       valuation the same way before testing membership *)
    let n = Array.length net.Network.clock_names in
    let n_comp = Array.length net.Network.automata in
    let clocks = Array.copy c.Concrete.clocks in
    for x = 1 to n - 1 do
      let live =
        net.Network.pinned.(x)
        || Array.exists
             (fun i -> net.Network.active.(i).(c.Concrete.locs.(i)).(x))
             (Array.init n_comp (fun i -> i))
      in
      if not live then clocks.(x) <- 0
    done;
    match Hashtbl.find_opt store (c.Concrete.locs, c.Concrete.env) with
    | None -> false
    | Some zones -> (
        List.exists (fun z -> Ita_dbm.Dbm.satisfies z clocks) zones
        ||
        match lusim_net with
        | None -> false
        | Some rnet ->
            let st =
              { Semantics.locs = c.Concrete.locs; env = c.Concrete.env }
            in
            let l, u = Semantics.lu_bounds rnet st in
            let pt = point_zone clocks in
            List.exists (fun z -> Ita_dbm.Dbm.le_lu l u pt z) zones)

let walk_covered net seed =
  let covered = symbolic_cover net in
  let walk = Concrete.random_walk net ~seed ~steps:40 ~max_step_delay:7 in
  List.for_all (fun (_, c) -> covered c) walk

let prop_concrete_covered name net =
  QCheck2.Test.make ~count:25 ~name:("concrete runs covered: " ^ name)
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed -> walk_covered net seed)

let generated_mini () =
  (* a small generated architecture network, so the whole Gen pipeline
     is cross-validated too *)
  let open Ita_core in
  let cpu =
    Resource.processor "CPU" ~mips:1.0 ~policy:Resource.Priority_preemptive
  in
  let hi =
    Scenario.make ~name:"Hi"
      ~trigger:(Eventmodel.Periodic { period = 10; offset = 0 })
      ~band:Scenario.High
      ~steps:[ Scenario.Compute { op = "h"; resource = "CPU"; instructions = 2.0 } ]
      ~requirements:[]
  in
  let lo =
    Scenario.make ~name:"Lo"
      ~trigger:(Eventmodel.Sporadic { min_separation = 25 })
      ~band:Scenario.Low
      ~steps:[ Scenario.Compute { op = "l"; resource = "CPU"; instructions = 8.0 } ]
      ~requirements:[]
  in
  let sys =
    Sysmodel.make ~name:"mini" ~resources:[ cpu ] ~scenarios:[ hi; lo ]
      ~queue_bound:3 ()
  in
  (Gen.generate sys).Gen.net

let coverage_suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_concrete_covered "two-phase" (let net, _, _ = Models.two_phase () in net);
      prop_concrete_covered "urgent-gate" (fst (Models.urgent_gate ()));
      prop_concrete_covered "handshake" (fst (Models.handshake ()));
      prop_concrete_covered "broadcast" (Models.broadcast_pair ());
      prop_concrete_covered "generated-mini" (generated_mini ());
    ]

(* ------------------------------------------------------------------ *)
(* ExtraM vs Extra+LU differential testing: the coarser abstraction
   must never change a reachability verdict or a WCRT value — ExtraM
   is the oracle ExtraLU is checked against.                           *)
(* ------------------------------------------------------------------ *)

let verdict = function
  | Reach.Reachable _ -> "reachable"
  | Reach.Unreachable _ -> "unreachable"
  | Reach.Budget_exhausted _ -> "budget"

let sup_fingerprint ?(initial_ceiling = 64) ?(max_ceiling = 256) net ~at ~clock
    abstraction =
  (* tiny ceilings: an unbounded clock would otherwise enumerate one
     zone per time unit up to the ceiling before extrapolation merges
     them, and the fingerprint only has to be identical across
     abstractions — model constants here are all well below 64 *)
  match Wcrt.sup ~abstraction ~initial_ceiling ~max_ceiling net ~at ~clock with
  | Wcrt.Sup { value; kind; _ } ->
      Printf.sprintf "sup %d %s" value
        (match kind with Wcrt.Attained -> "attained" | Wcrt.Approached -> "approached")
  | Wcrt.Goal_unreachable _ -> "unreachable"
  | Wcrt.Sup_budget_exhausted _ -> "budget"
  | Wcrt.Sup_unbounded _ -> "unbounded"

(* Every location of every component, every clock: all three
   abstractions must report the same sup outcome. *)
let check_net_wcrt_agrees name net =
  let n_clocks = Array.length net.Network.clock_names in
  Array.iteri
    (fun _ (a : Automaton.t) ->
      Array.iter
        (fun (l : Automaton.location) ->
          let at = Query.at net ~comp:a.Automaton.name ~loc:l.Automaton.loc_name in
          for x = 1 to n_clocks - 1 do
            let m = sup_fingerprint net ~at ~clock:x Reach.ExtraM in
            let lu = sup_fingerprint net ~at ~clock:x Reach.ExtraLU in
            let ls = sup_fingerprint net ~at ~clock:x Reach.LuSim in
            Alcotest.(check string)
              (Printf.sprintf "%s: sup %s at %s.%s" name
                 net.Network.clock_names.(x) a.Automaton.name
                 l.Automaton.loc_name)
              m lu;
            Alcotest.(check string)
              (Printf.sprintf "%s: lusim sup %s at %s.%s" name
                 net.Network.clock_names.(x) a.Automaton.name
                 l.Automaton.loc_name)
              lu ls
          done)
        a.Automaton.locations)
    net.Network.automata

let test_wcrt_agrees_on_models () =
  let nets =
    [
      ("two-phase", (let net, _, _ = Models.two_phase () in net));
      ("urgent-gate", fst (Models.urgent_gate ()));
      ("committed-gate", fst (Models.committed_gate ()));
      ("handshake", fst (Models.handshake ()));
      ("broadcast", Models.broadcast_pair ());
    ]
  in
  List.iter (fun (name, net) -> check_net_wcrt_agrees name net) nets

let test_verdicts_agree_on_examples () =
  (* run every query shipped with the example models under both
     abstractions *)
  let module E = Ita_tafmt.Elaborate in
  let model_path name =
    let candidates =
      [ "../examples/models/" ^ name; "examples/models/" ^ name ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> Alcotest.failf "%s not found" name
  in
  List.iter
    (fun file ->
      let { E.net; queries; _ } = E.load_file (model_path file) in
      List.iteri
        (fun i q ->
          match q with
          | E.Reach_q q ->
              let m = verdict (Reach.reach ~abstraction:Reach.ExtraM net q) in
              let lu = verdict (Reach.reach ~abstraction:Reach.ExtraLU net q) in
              let ls = verdict (Reach.reach ~abstraction:Reach.LuSim net q) in
              Alcotest.(check string)
                (Printf.sprintf "%s query %d" file i)
                m lu;
              Alcotest.(check string)
                (Printf.sprintf "%s query %d (lusim)" file i)
                lu ls
          | E.Sup_q { clock; at } ->
              let m = sup_fingerprint net ~at ~clock Reach.ExtraM in
              let lu = sup_fingerprint net ~at ~clock Reach.ExtraLU in
              let ls = sup_fingerprint net ~at ~clock Reach.LuSim in
              Alcotest.(check string)
                (Printf.sprintf "%s sup query %d" file i)
                m lu;
              Alcotest.(check string)
                (Printf.sprintf "%s sup query %d (lusim)" file i)
                lu ls
          | E.Deadlock_q -> ())
        queries)
    [ "fischer.ta"; "train_gate.ta"; "two_phase.ta" ]

(* Random diagonal-free automata: two clocks, a handful of locations,
   random guards / invariants / resets.  Upper-bound invariants only,
   so the initial valuation always satisfies them.                     *)
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

let test_random_nets_agree =
  QCheck2.Test.make ~count:60
    ~name:"ExtraM, Extra+LU and LuSim verdicts agree on random automata"
    QCheck2.Gen.(pair gen_random_net (int_range 0 10))
    (fun ((net, nl), c) ->
      (* reachability of every location with y >= c, plus the sup of
         both clocks at every location, must be abstraction-invariant *)
      let ok = ref true in
      for l = 0 to nl - 1 do
        let at = Query.at net ~comp:"P" ~loc:(Printf.sprintf "L%d" l) in
        let q = Query.with_guard at (Guard.clock_ge 2 c) in
        let m = verdict (Reach.reach ~abstraction:Reach.ExtraM net q) in
        let lu = verdict (Reach.reach ~abstraction:Reach.ExtraLU net q) in
        let ls = verdict (Reach.reach ~abstraction:Reach.LuSim net q) in
        if m <> lu || lu <> ls then ok := false;
        for x = 1 to 2 do
          let fp = sup_fingerprint net ~at ~clock:x in
          let lu = fp Reach.ExtraLU in
          if fp Reach.ExtraM <> lu || fp Reach.LuSim <> lu then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Satellite: the operator knobs — pure parsers, and the TAMC_*
   environment fallbacks.  Unset, blank and invalid values must all
   resolve to the same built-in default (invalid ones additionally
   warn on stderr; the fallback itself is what these tests pin).       *)

let with_env var value f =
  let saved = Sys.getenv_opt var in
  Unix.putenv var value;
  (* [env_knob] treats a blank value exactly like an unset one, so
     restoring to "" is a faithful undo even when the variable was
     absent before (putenv cannot unset). *)
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv var (match saved with Some s -> s | Option.None -> ""))
    f

let test_parse_domains () =
  let ok input expected =
    Alcotest.(check bool)
      (Printf.sprintf "parse_domains %S" input)
      true
      (Reach.parse_domains input = Ok expected)
  and err input =
    Alcotest.(check bool)
      (Printf.sprintf "parse_domains %S rejected" input)
      true
      (match Reach.parse_domains input with Error _ -> true | Ok _ -> false)
  in
  ok "1" 1;
  ok " 8 " 8;
  ok "16" 16;
  err "0";
  err "-3";
  err "two";
  err ""

let test_parse_abstraction () =
  let ok input expected =
    Alcotest.(check bool)
      (Printf.sprintf "parse_abstraction %S" input)
      true
      (Reach.parse_abstraction input = Ok expected)
  and err input =
    Alcotest.(check bool)
      (Printf.sprintf "parse_abstraction %S rejected" input)
      true
      (match Reach.parse_abstraction input with
      | Error _ -> true
      | Ok _ -> false)
  in
  ok "extram" Reach.ExtraM;
  ok "ExtraLU" Reach.ExtraLU;
  ok " lusim " Reach.LuSim;
  ok "LuSim" Reach.LuSim;
  (* the printer the CLIs and the DSE cache key use reads back *)
  List.iter
    (fun a -> ok (Reach.abstraction_name a) a)
    [ Reach.ExtraM; Reach.ExtraLU; Reach.LuSim ];
  err "extra+lu";
  err "m";
  err ""

let test_default_domains_env () =
  let fallback = max 1 (Domain.recommended_domain_count ()) in
  with_env "TAMC_DOMAINS" "3" (fun () ->
      Alcotest.(check int) "honored" 3 (Reach.default_domains ()));
  List.iter
    (fun bad ->
      with_env "TAMC_DOMAINS" bad (fun () ->
          Alcotest.(check int)
            (Printf.sprintf "%S falls back like unset" bad)
            fallback
            (Reach.default_domains ())))
    [ ""; "  "; "0"; "-2"; "bogus" ]

let test_default_abstraction_env () =
  with_env "TAMC_ABSTRACTION" "lusim" (fun () ->
      Alcotest.(check bool) "honored" true
        (Reach.default_abstraction () = Reach.LuSim));
  List.iter
    (fun bad ->
      with_env "TAMC_ABSTRACTION" bad (fun () ->
          Alcotest.(check bool)
            (Printf.sprintf "%S falls back to extralu" bad)
            true
            (Reach.default_abstraction () = Reach.ExtraLU)))
    [ ""; "extra+lu"; "none" ]

let () =
  Alcotest.run "mc"
    [
      ( "knobs",
        [
          Alcotest.test_case "parse domains" `Quick test_parse_domains;
          Alcotest.test_case "parse abstraction" `Quick test_parse_abstraction;
          Alcotest.test_case "TAMC_DOMAINS fallback" `Quick
            test_default_domains_env;
          Alcotest.test_case "TAMC_ABSTRACTION fallback" `Quick
            test_default_abstraction_env;
        ] );
      ( "reach",
        [
          Alcotest.test_case "reachable (bfs)" `Quick (test_reachable Reach.Bfs);
          Alcotest.test_case "reachable (dfs)" `Quick (test_reachable Reach.Dfs);
          Alcotest.test_case "reachable (rdfs)" `Quick
            (test_reachable (Reach.Random_dfs 1));
          Alcotest.test_case "unreachable (bfs)" `Quick
            (test_unreachable Reach.Bfs);
          Alcotest.test_case "unreachable (dfs)" `Quick
            (test_unreachable Reach.Dfs);
          Alcotest.test_case "goal zone" `Quick test_goal_zone;
          Alcotest.test_case "goal zone (extralu)" `Quick test_goal_zone_lu;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "orders agree" `Quick test_orders_agree;
          Alcotest.test_case "witness structure" `Quick test_witness_structure;
        ] );
      ( "wcrt",
        [
          Alcotest.test_case "sup" `Quick test_sup_two_phase;
          Alcotest.test_case "sup unreachable goal" `Quick
            test_sup_unreachable_goal;
          Alcotest.test_case "sup ceiling growth" `Quick
            test_sup_needs_ceiling_growth;
          Alcotest.test_case "binary search" `Quick test_binary_search;
          QCheck_alcotest.to_alcotest test_binary_search_agrees_with_sup;
          Alcotest.test_case "probe lower" `Quick test_probe_lower;
          Alcotest.test_case "binary search starved" `Quick
            test_binary_search_budget_starved;
          QCheck_alcotest.to_alcotest test_binary_search_budget_sound;
          Alcotest.test_case "sup budget exhausted" `Quick
            test_sup_budget_exhausted;
          QCheck_alcotest.to_alcotest test_probe_lower_monotone;
        ] );
      ( "semantics-e2e",
        [
          Alcotest.test_case "urgent" `Quick test_urgent_reach;
          Alcotest.test_case "committed" `Quick test_committed_reach;
        ] );
      ("concrete-coverage", coverage_suite);
      ( "abstraction-differential",
        [
          Alcotest.test_case "wcrt agrees on test models" `Quick
            test_wcrt_agrees_on_models;
          Alcotest.test_case "verdicts agree on example files" `Quick
            test_verdicts_agree_on_examples;
          QCheck_alcotest.to_alcotest test_random_nets_agree;
        ] );
    ]
