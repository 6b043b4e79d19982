(* Tests for the timed-automata formalism: expressions, guards,
   updates, network construction and the symbolic successor relation. *)

open Ita_ta
module Dbm = Ita_dbm.Dbm
module Bound = Ita_dbm.Bound

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let test_expr_eval () =
  let env = [| 3; -2 |] in
  let e = Expr.(Add (Mul (Var 0, Int 4), Neg (Var 1))) in
  Alcotest.(check int) "3*4 - (-2)" 14 (Expr.eval env e);
  let b = Expr.(And (Cmp (Gt, Var 0, Int 0), Not (Cmp (Eq, Var 1, Int 0)))) in
  Alcotest.(check bool) "bool eval" true (Expr.eval_bool env b);
  let ite = Expr.(Ite (Cmp (Lt, Var 1, Int 0), Int 1, Int 2)) in
  Alcotest.(check int) "ite" 1 (Expr.eval env ite)

let test_expr_division () =
  Alcotest.(check int) "div" 3 (Expr.eval [||] (Expr.Div (Int 7, Int 2)));
  Alcotest.check_raises "div by zero"
    (Expr.Division_by_zero (Expr.Div (Expr.Int 1, Expr.Int 0)))
    (fun () -> ignore (Expr.eval [||] (Expr.Div (Expr.Int 1, Expr.Int 0))))

let test_expr_interval () =
  let ranges = [| (0, 10); (-5, 5) |] in
  let lo, hi = Expr.interval ranges Expr.(Add (Var 0, Var 1)) in
  Alcotest.(check (pair int int)) "add" (-5, 15) (lo, hi);
  let lo, hi = Expr.interval ranges Expr.(Mul (Var 0, Var 1)) in
  Alcotest.(check (pair int int)) "mul" (-50, 50) (lo, hi);
  let lo, hi = Expr.interval ranges Expr.(Sub (Int 0, Var 0)) in
  Alcotest.(check (pair int int)) "sub" (-10, 0) (lo, hi)

let test_expr_interval_sound =
  QCheck2.Test.make ~count:300 ~name:"interval encloses eval"
    QCheck2.Gen.(tup2 (int_range 0 10) (int_range (-5) 5))
    (fun (a, b) ->
      let ranges = [| (0, 10); (-5, 5) |] in
      let env = [| a; b |] in
      let exprs =
        Expr.
          [
            Add (Var 0, Var 1);
            Sub (Mul (Var 0, Var 1), Int 3);
            Ite (Cmp (Ge, Var 1, Int 0), Var 0, Neg (Var 0));
          ]
      in
      List.for_all
        (fun e ->
          let lo, hi = Expr.interval ranges e in
          let v = Expr.eval env e in
          lo <= v && v <= hi)
        exprs)

(* ------------------------------------------------------------------ *)
(* Guards and updates                                                  *)
(* ------------------------------------------------------------------ *)

let test_guard_apply () =
  let env = [| 7 |] in
  let z = Dbm.zero 1 in
  Dbm.up z;
  (* x <= v where v = 7 from the environment *)
  Guard.apply env (Guard.clock_rel 1 Guard.Le (Expr.Var 0)) z;
  Alcotest.(check int) "sup picked up variable bound" (Bound.le 7 :> int)
    (Dbm.sup z 1 :> int)

let test_guard_max_constant () =
  let g =
    Guard.conj
      (Guard.clock_le 1 40)
      (Guard.clock_rel 1 Guard.Ge (Expr.Var 0))
  in
  Alcotest.(check int) "max over var range" 100
    (Guard.max_constant [| (0, 100) |] g 1);
  Alcotest.(check int) "other clock unconstrained" 0
    (Guard.max_constant [| (0, 100) |] g 2)

let test_update_sequential () =
  let ranges = [| (0, 10); (0, 10) |] in
  let env = [| 1; 2 |] in
  let u =
    Update.seq
      [
        Update.set 0 Expr.(Add (Var 0, Int 1));
        Update.set 1 Expr.(Mul (Var 0, Int 3)) (* sees the new value *);
      ]
  in
  Update.apply_env ~ranges env u;
  Alcotest.(check (pair int int)) "sequential" (2, 6) (env.(0), env.(1))

let test_update_out_of_range () =
  let ranges = [| (0, 3) |] in
  let env = [| 3 |] in
  Alcotest.check_raises "overflow"
    (Update.Out_of_range { var = 0; value = 4 })
    (fun () -> Update.apply_env ~ranges env (Update.incr 0))

(* ------------------------------------------------------------------ *)
(* Builder validation                                                  *)
(* ------------------------------------------------------------------ *)

let build_with_urgent_clock_guard () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let c = Network.Builder.channel b "u" Channel.Binary ~urgent:true in
  let a =
    Automaton.make ~name:"A"
      ~locations:[ Models.loc "L0"; Models.loc "L1" ]
      ~edges:
        [
          Models.edge 0 1 ~guard:(Guard.clock_ge x 1)
            ~sync:(Automaton.Send c);
        ]
      ~initial:0
  in
  Network.Builder.add_automaton b a;
  ignore (Network.Builder.build b)

let test_validation () =
  (match build_with_urgent_clock_guard () with
  | () -> Alcotest.fail "expected Invalid_model"
  | exception Network.Invalid_model _ -> ());
  let b = Network.Builder.create () in
  ignore (Network.Builder.clock b "x");
  (match Network.Builder.clock b "x" with
  | _ -> Alcotest.fail "duplicate clock accepted"
  | exception Network.Invalid_model _ -> ());
  match Network.Builder.int_var b "v" ~lo:0 ~hi:1 ~init:5 with
  | _ -> Alcotest.fail "bad init accepted"
  | exception Network.Invalid_model _ -> ()

let test_extrapolation_constants () =
  let net, x, y = Models.two_phase () in
  Alcotest.(check int) "k(x) from guards/invariants" 4 net.Network.k.(x);
  Alcotest.(check int) "k(y): unconstrained" 0 net.Network.k.(y);
  let net' = Network.bump_clock_bound net y 99 in
  Alcotest.(check int) "bumped" 99 net'.Network.k.(y);
  Alcotest.(check int) "original untouched" 0 net.Network.k.(y)

(* A built network carries the classical constants as every location's
   L and U row and every clock active everywhere: the per-location
   tables come from the dataflow analysis alone (test_flow checks
   them). *)
let test_lu_rows_are_k () =
  List.iter
    (fun (name, (net : Network.t)) ->
      let rows_are_k (t : int array array array) =
        Array.for_all (Array.for_all (fun row -> row = net.Network.k)) t
      in
      Alcotest.(check bool) (name ^ ": L rows are k") true
        (rows_are_k net.Network.lloc);
      Alcotest.(check bool) (name ^ ": U rows are k") true
        (rows_are_k net.Network.uloc);
      Alcotest.(check bool) (name ^ ": every clock active") true
        (Array.for_all
           (Array.for_all (Array.for_all Fun.id))
           net.Network.active))
    [
      ("two-phase", (let net, _, _ = Models.two_phase () in net));
      ("urgent-gate", fst (Models.urgent_gate ()));
      ("committed-gate", fst (Models.committed_gate ()));
      ("handshake", fst (Models.handshake ()));
      ("broadcast", Models.broadcast_pair ());
    ]

(* ------------------------------------------------------------------ *)
(* Symbolic semantics                                                  *)
(* ------------------------------------------------------------------ *)

let test_initial_delay_closed () =
  let net, x, y = Models.two_phase () in
  (* clock y is only observed by queries: unpinned, the flow-refined
     activity marks it inactive and the reduction normalizes it away *)
  let net = Ita_analysis.Flow.refine_network net in
  let c = Semantics.initial net in
  Alcotest.(check bool) "x unbounded" true
    (Bound.is_infinity (Dbm.sup c.Semantics.zone x));
  Alcotest.(check int) "unpinned y normalized to 0" (Bound.le 0 :> int)
    (Dbm.sup c.Semantics.zone y :> int);
  (* pinning y (as every query does) keeps it tracked *)
  let net = Network.bump_clock_bound net y 1 in
  let c = Semantics.initial net in
  Alcotest.(check bool) "pinned y unbounded" true
    (Bound.is_infinity (Dbm.sup c.Semantics.zone y));
  Alcotest.(check int) "x - y == 0" (Bound.le 0 :> int)
    (Dbm.get c.Semantics.zone x y :> int)

let test_successors_two_phase () =
  let net, x, _y = Models.two_phase () in
  let c0 = Semantics.initial net in
  match Semantics.successors net c0 with
  | [ (Semantics.Internal { comp = 0; edge = 0 }, c1) ] -> (
      (* after L0 -> L1, x in [0, 4] by the invariant *)
      Alcotest.(check int) "x <= 4 in L1" (Bound.le 4 :> int)
        (Dbm.sup c1.Semantics.zone x :> int);
      match Semantics.successors net c1 with
      | [ (Semantics.Internal { comp = 0; edge = 1 }, c2) ] ->
          Alcotest.(check int) "at L2" 2 c2.Semantics.state.Semantics.locs.(0)
      | l -> Alcotest.failf "expected one successor of L1, got %d" (List.length l))
  | l -> Alcotest.failf "expected one successor, got %d" (List.length l)

let test_urgency_blocks_delay () =
  let net, _z = Models.urgent_gate () in
  let c0 = Semantics.initial net in
  (* find the successor where T sets the flag *)
  let after_t =
    List.find_map
      (fun (_, c) ->
        if c.Semantics.state.Semantics.env.(0) = 1 then Some c else None)
      (Semantics.successors net c0)
  in
  match after_t with
  | None -> Alcotest.fail "T never fired"
  | Some c ->
      Alcotest.(check bool) "urgent sync disables delay" false
        (Semantics.delay_allowed net c.Semantics.state)

let test_committed_blocks_others () =
  let net, _w = Models.committed_gate () in
  let c0 = Semantics.initial net in
  Alcotest.(check bool) "initially both may move" true
    (List.length (Semantics.successors net c0) = 2);
  let at_k1 =
    List.find_map
      (fun (_, c) ->
        if c.Semantics.state.Semantics.locs.(0) = 1 then Some c else None)
      (Semantics.successors net c0)
  in
  match at_k1 with
  | None -> Alcotest.fail "A never reached K1"
  | Some c -> (
      Alcotest.(check bool) "committed: no delay" false
        (Semantics.delay_allowed net c.Semantics.state);
      match Semantics.successors net c with
      | [ (Semantics.Internal { comp = 0; edge = 1 }, _) ] -> ()
      | l ->
          Alcotest.failf "expected only A's edge from committed, got %d"
            (List.length l))

let test_handshake_pairs () =
  let net, _z = Models.handshake () in
  let c0 = Semantics.initial net in
  (* only R's internal move is possible initially: S must wait *)
  (match Semantics.successors net c0 with
  | [ (Semantics.Internal { comp = 1; edge = 0 }, c1) ] -> (
      match Semantics.successors net c1 with
      | [ (Semantics.Sync { sender = 0, 0; receivers = [ (1, 1) ]; _ }, c2) ]
        ->
          Alcotest.(check int) "S at P1" 1
            c2.Semantics.state.Semantics.locs.(0);
          Alcotest.(check int) "R at Q2" 2
            c2.Semantics.state.Semantics.locs.(1)
      | l -> Alcotest.failf "expected the handshake, got %d" (List.length l))
  | l -> Alcotest.failf "expected only R's move, got %d" (List.length l))

let test_broadcast () =
  let net = Models.broadcast_pair () in
  let c0 = Semantics.initial net in
  match Semantics.successors net c0 with
  | [ (Semantics.Sync { receivers; _ }, c1) ] ->
      Alcotest.(check int) "one receiver participates" 1
        (List.length receivers);
      Alcotest.(check int) "enabled receiver moved" 1
        c1.Semantics.state.Semantics.locs.(1);
      Alcotest.(check int) "disabled receiver stayed" 0
        c1.Semantics.state.Semantics.locs.(2)
  | l -> Alcotest.failf "expected one broadcast, got %d" (List.length l)

let () =
  Alcotest.run "ta"
    [
      ( "expr",
        [
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "division" `Quick test_expr_division;
          Alcotest.test_case "interval" `Quick test_expr_interval;
          QCheck_alcotest.to_alcotest test_expr_interval_sound;
        ] );
      ( "guard/update",
        [
          Alcotest.test_case "apply with variable bound" `Quick
            test_guard_apply;
          Alcotest.test_case "max constant" `Quick test_guard_max_constant;
          Alcotest.test_case "sequential update" `Quick test_update_sequential;
          Alcotest.test_case "out of range" `Quick test_update_out_of_range;
        ] );
      ( "network",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "extrapolation constants" `Quick
            test_extrapolation_constants;
          Alcotest.test_case "L/U rows are k" `Quick test_lu_rows_are_k;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "initial delay-closed" `Quick
            test_initial_delay_closed;
          Alcotest.test_case "two-phase successors" `Quick
            test_successors_two_phase;
          Alcotest.test_case "urgency blocks delay" `Quick
            test_urgency_blocks_delay;
          Alcotest.test_case "committed blocks others" `Quick
            test_committed_blocks_others;
          Alcotest.test_case "binary handshake" `Quick test_handshake_pairs;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
        ] );
    ]
