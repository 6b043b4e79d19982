(* Tests for the textual .ta format: lexer, parser, elaboration and
   checking parsed models end to end. *)

module L = Ita_tafmt.Lexer
module P = Ita_tafmt.Parser
module E = Ita_tafmt.Elaborate
module Ast = Ita_tafmt.Ast
open Ita_ta

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  let lx = L.of_string "clock x // comment\n  edge A -> B when x <= 5" in
  let toks = List.init 9 (fun _ -> L.next lx) in
  Alcotest.(check bool) "token stream" true
    (toks
    = [
        L.KW "clock";
        L.IDENT "x";
        L.KW "edge";
        L.IDENT "A";
        L.PUNCT "->";
        L.IDENT "B";
        L.KW "when";
        L.IDENT "x";
        L.PUNCT "<=";
      ])

let test_lexer_numbers () =
  let lx = L.of_string "42 -7" in
  Alcotest.(check bool) "int" true (L.next lx = L.INT 42);
  Alcotest.(check bool) "negative int" true (L.next lx = L.INT (-7));
  Alcotest.(check bool) "eof" true (L.next lx = L.EOF)

let test_lexer_error () =
  let lx = L.of_string "x @ y" in
  ignore (L.next lx);
  match L.next lx with
  | _ -> Alcotest.fail "expected lex error"
  | exception L.Lex_error { line = 1; _ } -> ()

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let two_phase_src =
  {|
clock x y
process P {
  init loc L0
  loc L1 inv x <= 4
  committed loc L2
  edge L0 -> L1 when x >= 1 && x <= 2 do x := 0
  edge L1 -> L2 when x == 4
}
query reach P.L2 && y >= 6
query sup y at P.L2
|}

let test_parse_structure () =
  let decls = P.parse_string two_phase_src in
  Alcotest.(check int) "four declarations" 4 (List.length decls);
  match decls with
  | [ Ast.Clocks [ "x"; "y" ]; Ast.Process p; Ast.Query (Ast.Reach _);
      Ast.Query (Ast.Sup _) ] ->
      Alcotest.(check int) "locations" 3 (List.length p.Ast.locs);
      Alcotest.(check int) "edges" 2 (List.length p.Ast.edges)
  | _ -> Alcotest.fail "unexpected declaration shapes"

let test_parse_expressions () =
  let decls = P.parse_string "var n 0 9 0\nprocess P { init loc A edge A -> A when n * 2 + 1 == 3 && !(n > 4) do n := n + 1 }" in
  match decls with
  | [ Ast.Var _; Ast.Process { Ast.edges = [ e ]; _ } ] ->
      Alcotest.(check bool) "guard parsed" true (e.Ast.edge_guard <> None);
      Alcotest.(check int) "one update" 1 (List.length e.Ast.edge_updates)
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_error_line () =
  match P.parse_string "clock x\nprocess {" with
  | _ -> Alcotest.fail "expected error"
  | exception P.Parse_error { line = 2; _ } -> ()
  | exception P.Parse_error { line; _ } ->
      Alcotest.failf "error on wrong line %d" line

(* ------------------------------------------------------------------ *)
(* Elaboration and end-to-end checking                                 *)
(* ------------------------------------------------------------------ *)

let test_elaborate_two_phase () =
  let { E.net; queries; _ } = E.elaborate (P.parse_string two_phase_src) in
  Alcotest.(check int) "two clocks" 2 (Network.n_clocks net);
  Alcotest.(check int) "one component" 1 (Network.n_components net);
  match queries with
  | [ E.Reach_q q6; E.Sup_q { clock; at } ] -> (
      (match Ita_mc.Reach.reach net q6 with
      | Ita_mc.Reach.Reachable _ -> ()
      | _ -> Alcotest.fail "y >= 6 should be reachable");
      match Ita_mc.Wcrt.sup net ~at ~clock with
      | Ita_mc.Wcrt.Sup { value; _ } -> Alcotest.(check int) "sup" 6 value
      | _ -> Alcotest.fail "sup should be found")
  | _ -> Alcotest.fail "expected two queries"

let test_elaborate_sync_and_urgent () =
  let src =
    {|
clock z
var flag 0 1 0
urgent broadcast chan hurry
process U {
  init loc L0
  loc L1
  edge L0 -> L1 when flag == 1 sync hurry!
}
process T {
  init loc M0 inv z <= 5
  loc M1
  edge M0 -> M1 when z == 5 do flag := 1
}
query reach U.L0 && T.M1 && z > 5
|}
  in
  let { E.net; queries; _ } = E.elaborate (P.parse_string src) in
  match queries with
  | [ E.Reach_q q ] -> (
      match Ita_mc.Reach.reach net q with
      | Ita_mc.Reach.Unreachable _ -> ()
      | _ -> Alcotest.fail "urgency must pin z at 5")
  | _ -> Alcotest.fail "expected one query"

let test_elaborate_errors () =
  let expect_err src =
    match E.elaborate (P.parse_string src) with
    | _ -> Alcotest.fail "expected Elab_error"
    | exception E.Elab_error _ -> ()
  in
  (* unknown identifier *)
  expect_err "process P { init loc A edge A -> A when nope == 1 }";
  (* clock used as integer *)
  expect_err "clock x\nvar n 0 9 0\nprocess P { init loc A edge A -> A do n := x }";
  (* clock compared to clock *)
  expect_err "clock x y\nprocess P { init loc A edge A -> A when x <= y }";
  (* clock under disjunction *)
  expect_err
    "clock x\nvar n 0 9 0\nprocess P { init loc A edge A -> A when x <= 3 || n == 1 }";
  (* two init locations *)
  expect_err "process P { init loc A init loc B }"

(* tests run from _build/default/test under dune, or from the repo root
   when the executable is invoked directly *)
let model_path name =
  let candidates =
    [ "../examples/models/" ^ name; "examples/models/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "%s not found" name

let test_fischer () =
  let path = model_path "fischer.ta" in
  begin
    let { E.net; queries; _ } = E.load_file path in
    match queries with
    | [ E.Reach_q mutex; E.Reach_q live1; E.Reach_q live2; E.Deadlock_q ] ->
        (match Ita_mc.Reach.reach net mutex with
        | Ita_mc.Reach.Unreachable _ -> ()
        | _ -> Alcotest.fail "mutual exclusion violated");
        List.iter
          (fun q ->
            match Ita_mc.Reach.reach net q with
            | Ita_mc.Reach.Reachable _ -> ()
            | _ -> Alcotest.fail "process cannot reach its critical section")
          [ live1; live2 ];
        (* the protocol is also deadlock-free *)
        let dead = ref false in
        let net = Ita_analysis.Flow.refine_network net in
        (match
           Ita_mc.Reach.explore net ~on_store:(fun cfg ->
               if Ita_ta.Semantics.successors net cfg = [] then dead := true)
         with
        | `Complete _ -> ()
        | `Budget_exhausted _ -> Alcotest.fail "exploration incomplete");
        Alcotest.(check bool) "deadlock-free" false !dead
    | _ -> Alcotest.fail "expected four queries"
  end

let test_train_gate () =
  let path = model_path "train_gate.ta" in
  let { E.net; queries; _ } = E.load_file path in
  (match queries with
  | [ E.Reach_q unsafe1; E.Reach_q unsafe2; E.Reach_q good; E.Deadlock_q ] ->
      List.iter
        (fun q ->
          match Ita_mc.Reach.reach net q with
          | Ita_mc.Reach.Unreachable _ -> ()
          | _ -> Alcotest.fail "train in crossing with the gate not down")
        [ unsafe1; unsafe2 ];
      (match Ita_mc.Reach.reach net good with
      | Ita_mc.Reach.Reachable _ -> ()
      | _ -> Alcotest.fail "the train never crosses")
  | _ -> Alcotest.fail "expected four queries")

let test_load_example_file () =
  (* the example shipped in examples/models must stay green *)
  let path = model_path "two_phase.ta" in
  begin
    let { E.net; queries; _ } = E.load_file path in
    Alcotest.(check int) "three queries" 3 (List.length queries);
    Alcotest.(check int) "one component" 1 (Network.n_components net)
  end

let () =
  Alcotest.run "tafmt"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "errors" `Quick test_lexer_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "structure" `Quick test_parse_structure;
          Alcotest.test_case "expressions" `Quick test_parse_expressions;
          Alcotest.test_case "error line" `Quick test_parse_error_line;
        ] );
      ( "elaborate",
        [
          Alcotest.test_case "two-phase end to end" `Quick
            test_elaborate_two_phase;
          Alcotest.test_case "sync and urgency" `Quick
            test_elaborate_sync_and_urgent;
          Alcotest.test_case "errors" `Quick test_elaborate_errors;
          Alcotest.test_case "example file" `Quick test_load_example_file;
          Alcotest.test_case "fischer protocol" `Quick test_fischer;
          Alcotest.test_case "train gate" `Quick test_train_gate;
        ] );
    ]
