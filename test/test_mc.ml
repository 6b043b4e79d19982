(* Tests for the model checker: reachability verdicts, search orders,
   traces and the WCRT drivers, all on models with known answers. *)

open Ita_ta
open Ita_mc
module Bound = Ita_dbm.Bound

let guard_y_ge y c = Guard.clock_ge y c

let model_path name =
  let candidates =
    [ "../examples/models/" ^ name; "examples/models/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "%s not found" name

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

let test_goal_zone_lu () =
  (* the Extra+LU goal zone contains every exact goal valuation ([y] up
     to 6), though possibly more above the L/U constants *)
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
    Wcrt.sup
      (Models.with_ceiling ~clock:y 2 net)
      ~at:(Query.at net ~comp:"P" ~loc:"L2")
      ~clock:y
  with
  | Wcrt.Sup { value; _ } -> Alcotest.(check int) "sup y = 6" 6 value
  | _ -> Alcotest.fail "sup should be found"

let test_binary_search () =
  let net, _x, y = Models.two_phase () in
  let r =
    Models.binary_search ~hi:8 net
      ~at:(Query.at net ~comp:"P" ~loc:"L2")
      ~clock:y
  in
  Alcotest.(check (option int)) "lower = 6" (Some 6) r.Models.lower;
  Alcotest.(check (option int)) "upper = 7" (Some 7) r.Models.upper

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
      let bs = Models.binary_search ~hi:4 net ~at ~clock:y in
      sup_val = ub + 4 && bs.Models.lower = Some sup_val)

(* ------------------------------------------------------------------ *)
(* WCRT drivers under exhausted budgets                                *)
(* ------------------------------------------------------------------ *)

let test_binary_search_budget_starved () =
  (* one state is never enough even to decide c = 0: the search must
     stop immediately and admit it knows nothing *)
  let net, _x, y = Models.two_phase () in
  let r =
    Models.binary_search ~budget:(Reach.states 1) ~hi:8 net
      ~at:(Query.at net ~comp:"P" ~loc:"L2")
      ~clock:y
  in
  Alcotest.(check (option int)) "no lower bound" None r.Models.lower;
  Alcotest.(check (option int)) "no upper bound" None r.Models.upper;
  Alcotest.(check int) "stopped after the first probe" 1 r.Models.runs

let test_binary_search_budget_sound =
  QCheck2.Test.make ~count:30 ~name:"binary search sound under any budget"
    QCheck2.Gen.(int_range 1 8)
    (fun b ->
      (* whatever partial bounds survive the budget must bracket the
         true sup (6, first unreachable 7) *)
      let net, _x, y = Models.two_phase () in
      let r =
        Models.binary_search ~budget:(Reach.states b) ~hi:8 net
          ~at:(Query.at net ~comp:"P" ~loc:"L2")
          ~clock:y
      in
      let lower_ok =
        match r.Models.lower with None -> true | Some l -> l >= 0 && l <= 6
      in
      let upper_ok =
        match r.Models.upper with None -> true | Some u -> u >= 7
      in
      let ordered =
        match (r.Models.lower, r.Models.upper) with
        | Some l, Some u -> l < u
        | _ -> true
      in
      r.Models.runs >= 1 && lower_ok && upper_ok && ordered)

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
(* Search order at one domain: [reach P1.cs] on fischer.ta must report
   the witness and counts [tamc check --order ... --trace] prints.  A
   breadth-first run that pops the newest node would report the
   depth-first figures, and a shifted random-dfs seed other ones.      *)

let test_order_pinned () =
  let module E = Ita_tafmt.Elaborate in
  let { E.net; queries; _ } = E.load_file (model_path "fischer.ta") in
  let q =
    match List.nth queries 1 with
    | E.Reach_q q -> q
    | _ -> Alcotest.fail "fischer.ta query 1 is reach P1.cs"
  in
  let bfs_witness =
    [
      "(initial) P1.idle | P2.idle  {id=0}";
      "[P1: idle -> req] P1.req | P2.idle  {id=0}";
      "[P1: req -> wait] P1.wait | P2.idle  {id=1}";
      "[P1: wait -> cs] P1.cs | P2.idle  {id=1}";
    ]
  and dfs_witness =
    [
      "(initial) P1.idle | P2.idle  {id=0}";
      "[P2: idle -> req] P1.idle | P2.req  {id=0}";
      "[P1: idle -> req] P1.req | P2.req  {id=0}";
      "[P2: req -> wait] P1.req | P2.wait  {id=2}";
      "[P1: req -> wait] P1.wait | P2.wait  {id=1}";
      "[P1: wait -> cs] P1.cs | P2.wait  {id=1}";
    ]
  in
  List.iter
    (fun (name, order, witness, counts) ->
      match Reach.reach ~order ~domains:1 net q with
      | Reach.Reachable { witness = w; stats; _ } ->
          let lines =
            Format.asprintf "%a" (Reach.pp_witness net) w
            |> String.split_on_char '\n'
            |> List.filter (( <> ) "")
            (* drop the "  0. " step numbers *)
            |> List.map (fun l -> String.sub l 5 (String.length l - 5))
          in
          Alcotest.(check (list string)) (name ^ ": witness") witness lines;
          Alcotest.(check (list int))
            (name ^ ": explored, stored, transitions")
            counts
            Reach.[ stats.explored; stats.stored; stats.transitions ]
      | _ -> Alcotest.failf "%s: P1.cs must be reachable" name)
    [
      ("bfs", Reach.Bfs, bfs_witness, [ 4; 7; 7 ]);
      ("dfs", Reach.Dfs, dfs_witness, [ 7; 9; 10 ]);
      ("rdfs 1", Reach.Random_dfs 1, dfs_witness, [ 13; 14; 18 ]);
    ]

let test_one_domain_on_caller () =
  (* one worker runs on the calling domain: no domain is spawned, so
     fork-based callers stay legal *)
  let net, _, _ = Models.two_phase () in
  let self = (Domain.self () :> int) in
  let calls = ref 0 and elsewhere = ref 0 in
  (match
     Reach.explore ~domains:1 net ~on_store:(fun _ ->
         incr calls;
         if (Domain.self () :> int) <> self then incr elsewhere)
   with
  | `Complete _ -> ()
  | `Budget_exhausted _ -> Alcotest.fail "exploration should complete");
  Alcotest.(check bool) "on_store ran" true (!calls > 0);
  Alcotest.(check int) "on_store calls on another domain" 0 !elsewhere

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

let walk_covered net seed =
  let covered = Models.symbolic_cover net in
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
(* The engine against the ExtraM reference explorer
   ([Models.reference_reach] / [Models.reference_sup]), which shares
   none of the engine's exploration code: Extra+LU over the
   flow-refined bounds and active-clock reduction must never change a
   reachability verdict or a WCRT value.                               *)
(* ------------------------------------------------------------------ *)

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

(* Small ceilings by default: an unbounded clock would otherwise
   enumerate one zone per time unit up to the ceiling before
   extrapolation merges them, and the zoo's and the examples' model
   constants are all well below 64.  The engine reaches [max_ceiling]
   through smaller ceilings; the reference takes it at once. *)
let engine_sup ?(initial_ceiling = 64) ?(max_ceiling = 256) ?domains net ~at
    ~clock =
  let net = Models.with_ceiling ~clock initial_ceiling net in
  sup_name
    (match Wcrt.sup ?domains ~max_ceiling net ~at ~clock with
    | Wcrt.Sup { value; kind; _ } -> `Sup (value, kind)
    | Wcrt.Goal_unreachable _ -> `Unreachable
    | Wcrt.Sup_unbounded _ -> `Unbounded
    | Wcrt.Sup_budget_exhausted _ -> `Budget)

let reference_sup ?(ceiling = 256) net ~at ~clock =
  sup_name (Models.reference_sup ~ceiling net ~at ~clock)

(* Every location of every component, every clock. *)
let check_net_wcrt_agrees name net =
  let n_clocks = Array.length net.Network.clock_names in
  Array.iter
    (fun (a : Automaton.t) ->
      Array.iter
        (fun (l : Automaton.location) ->
          let at = Query.at net ~comp:a.Automaton.name ~loc:l.Automaton.loc_name in
          for x = 1 to n_clocks - 1 do
            Alcotest.(check string)
              (Printf.sprintf "%s: sup %s at %s.%s" name
                 net.Network.clock_names.(x) a.Automaton.name
                 l.Automaton.loc_name)
              (reference_sup net ~at ~clock:x)
              (engine_sup net ~at ~clock:x)
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
  let module E = Ita_tafmt.Elaborate in
  List.iter
    (fun file ->
      let { E.net; queries; _ } = E.load_file (model_path file) in
      List.iteri
        (fun i q ->
          match q with
          | E.Reach_q q ->
              Alcotest.(check string)
                (Printf.sprintf "%s query %d" file i)
                (reference_verdict net q)
                (verdict (Reach.reach net q))
          | E.Sup_q { clock; at } ->
              Alcotest.(check string)
                (Printf.sprintf "%s sup query %d" file i)
                (reference_sup net ~at ~clock)
                (engine_sup net ~at ~clock)
          | E.Deadlock_q -> ())
        queries)
    [ "fischer.ta"; "island_demo.ta"; "train_gate.ta"; "two_phase.ta" ]

(* The paper's case study: the cheap HandleTMC cells, the engine at
   the generator's first ceiling (four times the uncontended window,
   above [engine_sup]'s 64), the reference at 1 s. *)
let test_radionav_agrees () =
  let module R = Ita_casestudy.Radionav in
  let module Core = Ita_core in
  List.iter
    (fun (combo, column, name) ->
      let sys = R.system combo column in
      let s = Core.Sysmodel.scenario sys "HandleTMC" in
      let req = Core.Scenario.requirement s "TMC" in
      let gen = Core.Gen.generate ~measure:("HandleTMC", req) sys in
      let obs = Option.get gen.Core.Gen.observer in
      let at = obs.Core.Gen.seen and clock = obs.Core.Gen.obs_clock in
      Alcotest.(check string) name
        (reference_sup ~ceiling:1_000_000 gen.Core.Gen.net ~at ~clock)
        (engine_sup ~max_ceiling:(1 lsl 40) gen.Core.Gen.net ~at ~clock))
    [
      (R.Al_tmc, R.Po, "al/HandleTMC/TMC [po]");
      (R.Al_tmc, R.Pno, "al/HandleTMC/TMC [pno]");
      (R.Cv_tmc, R.Po, "cv/HandleTMC/TMC [po]");
    ]

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

(* Reachability of every location with y >= c, plus the sup of both
   clocks at every location.  Pinned to one domain and a fixed seed:
   this is the case that catches a flow refinement lowering a guard
   constant by one, which none of the hand-written models exposes. *)
let random_nets_seed = 11
let random_nets_count = 1000

let test_random_nets_agree =
  QCheck2.Test.make ~count:random_nets_count
    ~name:"ExtraM reference agrees with the engine on random automata"
    QCheck2.Gen.(pair gen_random_net (int_range 0 10))
    (fun ((net, nl), c) ->
      let ok = ref true in
      for l = 0 to nl - 1 do
        let at = Query.at net ~comp:"P" ~loc:(Printf.sprintf "L%d" l) in
        let q = Query.with_guard at (Guard.clock_ge 2 c) in
        if verdict (Reach.reach ~domains:1 net q) <> reference_verdict net q
        then ok := false;
        for x = 1 to 2 do
          if
            engine_sup ~domains:1 net ~at ~clock:x
            <> reference_sup net ~at ~clock:x
          then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The operator knob: the pure parser, and the TAMC_DOMAINS
   environment fallback.  Unset, blank and invalid values must all
   resolve to the same built-in default (invalid ones additionally
   warn on stderr; the fallback itself is what these tests pin).       *)

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

let test_default_domains_env () =
  let fallback = max 1 (Domain.recommended_domain_count ()) in
  Models.with_env "TAMC_DOMAINS" "3" (fun () ->
      Alcotest.(check int) "honored" 3 (Reach.default_domains ()));
  List.iter
    (fun bad ->
      Models.with_env "TAMC_DOMAINS" bad (fun () ->
          Alcotest.(check int)
            (Printf.sprintf "%S falls back like unset" bad)
            fallback
            (Reach.default_domains ())))
    [ ""; "  "; "0"; "-2"; "bogus" ]

let () =
  Alcotest.run "mc"
    [
      ( "knobs",
        [
          Alcotest.test_case "parse domains" `Quick test_parse_domains;
          Alcotest.test_case "TAMC_DOMAINS fallback" `Quick
            test_default_domains_env;
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
          Alcotest.test_case "goal zone (extralu)" `Quick test_goal_zone_lu;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "orders agree" `Quick test_orders_agree;
          Alcotest.test_case "order pinned at one domain" `Quick
            test_order_pinned;
          Alcotest.test_case "one domain runs on the caller" `Quick
            test_one_domain_on_caller;
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
          Alcotest.test_case "binary search starved" `Quick
            test_binary_search_budget_starved;
          QCheck_alcotest.to_alcotest test_binary_search_budget_sound;
          Alcotest.test_case "sup budget exhausted" `Quick
            test_sup_budget_exhausted;
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
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| random_nets_seed |])
            test_random_nets_agree;
          Alcotest.test_case "radionav HandleTMC cells" `Quick
            test_radionav_agrees;
        ] );
    ]
