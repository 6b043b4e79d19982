(* Static-analysis tests: one minimal triggering model per lint pass,
   clean-baseline checks over the generated case-study networks and
   the shipped example models, and a differential suite showing the
   active-clock reduction changes no verdict and no WCRT value and
   never explores more states. *)

open Ita_ta
module D = Ita_analysis.Diagnostic
module Lint = Ita_analysis.Lint
module Reach = Ita_mc.Reach
module Wcrt = Ita_mc.Wcrt
module Query = Ita_mc.Query
module E = Ita_tafmt.Elaborate
module R = Ita_casestudy.Radionav
open Ita_core

let loc = Models.loc
let edge = Models.edge

let check_pass ?(severity : D.severity option) name pass findings =
  match D.by_pass pass findings with
  | [] -> Alcotest.failf "%s: expected a %s finding" name (D.pass_name pass)
  | d :: _ -> (
      match severity with
      | None -> ()
      | Some s ->
          Alcotest.(check string)
            (name ^ " severity") (D.severity_name s)
            (D.severity_name d.D.severity))

let check_no_pass name pass findings =
  if D.by_pass pass findings <> [] then
    Alcotest.failf "%s: unexpected %s finding" name (D.pass_name pass)

(* ---- unused-clock ---- *)

let test_unused_clock () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P" ~locations:[ loc "L0" ] ~edges:[] ~initial:0);
  let net = Network.Builder.build b in
  check_pass ~severity:D.Warning "unused" D.Unused_clock (Lint.run net);
  (* a clock observed from outside (a WCRT sup query) is exempt *)
  check_no_pass "observed" D.Unused_clock (Lint.run ~observed_clocks:[ x ] net)

(* ---- never-reset-clock ---- *)

let test_never_reset_clock () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:[ edge 0 1 ~guard:(Guard.clock_ge x 1) ]
       ~initial:0);
  let net = Network.Builder.build b in
  check_pass ~severity:D.Info "never-reset" D.Never_reset_clock (Lint.run net);
  check_no_pass "observed" D.Never_reset_clock
    (Lint.run ~observed_clocks:[ x ] net)

(* ---- dead-var ---- *)

let test_dead_var () =
  let b = Network.Builder.create () in
  let v = Network.Builder.int_var b "v" ~lo:0 ~hi:3 ~init:0 in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:[ edge 0 1 ~update:(Update.set v (Expr.Int 1)) ]
       ~initial:0);
  let net = Network.Builder.build b in
  check_pass ~severity:D.Warning "dead" D.Dead_var (Lint.run net);
  check_no_pass "observed" D.Dead_var (Lint.run ~observed_vars:[ v ] net)

(* ---- range-overflow ---- *)

let overflow_net rhs =
  let b = Network.Builder.create () in
  let v = Network.Builder.int_var b "v" ~lo:0 ~hi:3 ~init:0 in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:
         [
           edge 0 1
             ~guard:(Guard.data Expr.(Cmp (Ge, Var v, Int 0)))
             ~update:(Update.set v (rhs v));
         ]
       ~initial:0);
  Network.Builder.build b

let test_range_overflow () =
  (* v := 5 with v : [0, 3] can never stay in range: an error *)
  let definite = overflow_net (fun _ -> Expr.Int 5) in
  check_pass ~severity:D.Error "definite" D.Range_overflow (Lint.run definite);
  (* v := v + 1 straight from the initial valuation: the interval
     analysis knows v = 0 there, so the update provably stays in
     range — the old declared-range scan used to flag this *)
  let tightened = overflow_net (fun v -> Expr.(Add (Var v, Int 1))) in
  check_no_pass "flow-tightened" D.Range_overflow (Lint.run tightened);
  (* v := v + 1 on a loop: v really does range over [0, 3] at the
     source, so the enclosure [1, 4] is possibly out of range *)
  let possible =
    let b = Network.Builder.create () in
    let v = Network.Builder.int_var b "v" ~lo:0 ~hi:3 ~init:0 in
    Network.Builder.add_automaton b
      (Automaton.make ~name:"P" ~locations:[ loc "L0" ]
         ~edges:
           [ edge 0 0 ~update:(Update.set v Expr.(Add (Var v, Int 1))) ]
         ~initial:0);
    Network.Builder.build b
  in
  check_pass ~severity:D.Info "possible" D.Range_overflow (Lint.run possible);
  (* v := v with v : [0, 3] stays in range *)
  let clean = overflow_net (fun v -> Expr.Var v) in
  check_no_pass "clean" D.Range_overflow (Lint.run clean)

(* ---- unreachable-location ---- *)

let test_unreachable_location () =
  let b = Network.Builder.create () in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "ORPHAN" ]
       ~edges:[] ~initial:0);
  let net = Network.Builder.build b in
  check_pass ~severity:D.Warning "orphan" D.Unreachable_location (Lint.run net)

(* ---- invariant-misuse ---- *)

let test_invariant_misuse () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:
         [ loc "L0" ~invariant:(Guard.clock_ge x 2); loc "L1" ]
       ~edges:[ edge 0 1 ~update:(Update.reset x) ]
       ~initial:0);
  let net = Network.Builder.build b in
  check_pass "lower-bound invariant" D.Invariant_misuse (Lint.run net)

(* ---- urgent-clock-guard ---- *)

let test_urgent_clock_guard () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let c = Network.Builder.channel b "c" Channel.Binary ~urgent:true in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"S"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:
         [
           edge 0 1 ~sync:(Automaton.Send c) ~guard:(Guard.clock_ge x 1)
             ~update:(Update.reset x);
         ]
       ~initial:0);
  Network.Builder.add_automaton b
    (Automaton.make ~name:"R"
       ~locations:[ loc "M0"; loc "M1" ]
       ~edges:[ edge 0 1 ~sync:(Automaton.Recv c) ]
       ~initial:0);
  (* Builder.build rejects this model; the lint pass is for networks
     elaborated with the validation off *)
  let net = Network.Builder.build ~validate:false b in
  check_pass ~severity:D.Error "urgent guard" D.Urgent_clock_guard
    (Lint.run net)

(* ---- channel-peer ---- *)

let test_channel_peer () =
  let b = Network.Builder.create () in
  let c = Network.Builder.channel b "c" Channel.Binary ~urgent:false in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"S"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:[ edge 0 1 ~sync:(Automaton.Send c) ]
       ~initial:0);
  let net = Network.Builder.build b in
  check_pass "sender without receiver" D.Channel_peer (Lint.run net);
  (* the hurry! idiom: a broadcast send with no receivers is clean *)
  let b = Network.Builder.create () in
  let h = Network.Builder.channel b "hurry" Channel.Broadcast ~urgent:true in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"S"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:[ edge 0 1 ~sync:(Automaton.Send h) ]
       ~initial:0);
  let net = Network.Builder.build b in
  check_no_pass "hurry idiom" D.Channel_peer (Lint.run net)

(* ---- committed-cycle ---- *)

let test_committed_cycle () =
  let b = Network.Builder.create () in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:
         [
           loc "L0" ~kind:Automaton.Committed;
           loc "L1" ~kind:Automaton.Committed;
         ]
       ~edges:[ edge 0 1; edge 1 0 ]
       ~initial:0);
  let net = Network.Builder.build b in
  check_pass ~severity:D.Warning "committed loop" D.Committed_cycle
    (Lint.run net)

(* ---- zeno-cycle ---- *)

let test_zeno_cycle () =
  let b = Network.Builder.create () in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:[ edge 0 1; edge 1 0 ]
       ~initial:0);
  let free = Network.Builder.build b in
  check_pass ~severity:D.Warning "free cycle" D.Zeno_cycle (Lint.run free);
  (* a synchronizing cycle may be paced by its partner: only Info *)
  let b = Network.Builder.create () in
  let c = Network.Builder.channel b "c" Channel.Broadcast ~urgent:false in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:[ edge 0 1 ~sync:(Automaton.Send c); edge 1 0 ]
       ~initial:0);
  let synced = Network.Builder.build b in
  check_pass ~severity:D.Info "synced cycle" D.Zeno_cycle (Lint.run synced);
  (* a reset plus a positive lower bound on the same clock paces the
     cycle: clean *)
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:
         [
           edge 0 1 ~guard:(Guard.clock_ge x 1) ~update:(Update.reset x);
           edge 1 0;
         ]
       ~initial:0);
  let paced = Network.Builder.build b in
  check_no_pass "paced cycle" D.Zeno_cycle (Lint.run paced)

(* ------------------------------------------------------------------ *)
(* Clean baselines: the generated case study and the example models    *)
(* ------------------------------------------------------------------ *)

let worst_name findings =
  match D.worst findings with
  | None -> "clean"
  | Some s -> D.severity_name s

let test_generated_baseline () =
  List.iter
    (fun combo ->
      List.iter
        (fun col ->
          let sys = R.system combo col in
          let gen = Gen.generate sys in
          let findings = Lint.run gen.Gen.net in
          let bad =
            List.filter
              (fun (d : D.t) ->
                D.compare_severity d.D.severity D.Warning >= 0)
              findings
          in
          if bad <> [] then
            Alcotest.failf "%s [%s]: %d findings at warning+, worst %s"
              (match combo with R.Cv_tmc -> "cv" | R.Al_tmc -> "al")
              (R.column_name col) (List.length bad) (worst_name findings))
        R.columns)
    [ R.Cv_tmc; R.Al_tmc ]

let model_path name =
  let candidates =
    [ "../examples/models/" ^ name; "examples/models/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "%s not found" name

let example_files = [ "fischer.ta"; "train_gate.ta"; "two_phase.ta" ]

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

let test_examples_baseline () =
  List.iter
    (fun file ->
      let { E.net; queries; _ } = E.load_file (model_path file) in
      let observed_clocks, observed_vars = observed_of_queries queries in
      let findings = Lint.run ~observed_clocks ~observed_vars net in
      let bad =
        List.filter
          (fun (d : D.t) -> D.compare_severity d.D.severity D.Warning >= 0)
          findings
      in
      if bad <> [] then
        Alcotest.failf "%s: %d findings at warning+, worst %s" file
          (List.length bad) (worst_name findings))
    example_files

(* ------------------------------------------------------------------ *)
(* Active-clock reduction differential: the reduction is always on,
   and [Models.pin_all net] — every clock pinned always-active — is the
   unreduced oracle.  The two must agree on every reachability verdict
   and WCRT sup value, and the reduced exploration of the whole zone
   graph must never explore more symbolic states.                      *)
(* ------------------------------------------------------------------ *)

let pin_all = Models.pin_all

let verdict = function
  | Reach.Reachable _ -> "reachable"
  | Reach.Unreachable _ -> "unreachable"
  | Reach.Budget_exhausted _ -> "budget"

let sup_fingerprint ?(initial_ceiling = 64) ?(max_ceiling = 256) net ~at
    ~clock =
  match
    Wcrt.sup ~max_ceiling (Models.with_ceiling ~clock initial_ceiling net) ~at
      ~clock
  with
  | Wcrt.Sup { value; kind; _ } ->
      Printf.sprintf "sup %d %s" value
        (match kind with
        | Wcrt.Attained -> "attained"
        | Wcrt.Approached -> "approached")
  | Wcrt.Goal_unreachable _ -> "unreachable"
  | Wcrt.Sup_budget_exhausted _ -> "budget"
  | Wcrt.Sup_unbounded _ -> "unbounded"

(* explored symbolic states of the whole zone graph at one domain
   (counts at several domains are schedule-dependent), over the
   flow-refined activity every query explores with *)
let explored net =
  match
    Reach.explore ~budget:(Reach.states 200_000) ~domains:1
      (Ita_analysis.Flow.refine_network net)
      ~on_store:(fun _ -> ())
  with
  | `Complete s -> s.Reach.explored
  | `Budget_exhausted _ -> Alcotest.fail "exploration should complete"

let reduction_never_hurts name net =
  let on = explored net and off = explored (pin_all net) in
  if on > off then
    Alcotest.failf "%s: reduced run explores %d states, unreduced %d" name on
      off

let check_net_reduction_agrees name net =
  let n_clocks = Array.length net.Network.clock_names in
  Array.iter
    (fun (a : Automaton.t) ->
      Array.iter
        (fun (l : Automaton.location) ->
          let at =
            Query.at net ~comp:a.Automaton.name ~loc:l.Automaton.loc_name
          in
          for x = 1 to n_clocks - 1 do
            let off = sup_fingerprint (pin_all net) ~at ~clock:x in
            let on = sup_fingerprint net ~at ~clock:x in
            Alcotest.(check string)
              (Printf.sprintf "%s: sup %s at %s.%s" name
                 net.Network.clock_names.(x) a.Automaton.name
                 l.Automaton.loc_name)
              off on
          done)
        a.Automaton.locations)
    net.Network.automata;
  reduction_never_hurts name net

let test_reduction_agrees_on_models () =
  let nets =
    [
      ("two-phase", (let net, _, _ = Models.two_phase () in net));
      ("urgent-gate", fst (Models.urgent_gate ()));
      ("committed-gate", fst (Models.committed_gate ()));
      ("handshake", fst (Models.handshake ()));
      ("broadcast", Models.broadcast_pair ());
    ]
  in
  List.iter (fun (name, net) -> check_net_reduction_agrees name net) nets

let test_reduction_agrees_on_examples () =
  List.iter
    (fun file ->
      let { E.net; queries; _ } = E.load_file (model_path file) in
      List.iteri
        (fun i q ->
          match q with
          | E.Reach_q q ->
              let off = verdict (Reach.reach (pin_all net) q) in
              let on = verdict (Reach.reach net q) in
              Alcotest.(check string)
                (Printf.sprintf "%s query %d" file i)
                off on
          | E.Sup_q { clock; at } ->
              let off = sup_fingerprint (pin_all net) ~at ~clock in
              let on = sup_fingerprint net ~at ~clock in
              Alcotest.(check string)
                (Printf.sprintf "%s sup query %d" file i)
                off on
          | E.Deadlock_q -> ())
        queries;
      reduction_never_hurts file net)
    example_files

(* Random diagonal-free automata, as in the abstraction differential of
   test_mc: clocks that go inactive in some locations are exactly what
   the reduction erases, and a wrong erasure would change a verdict. *)
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
       return (edge src dst ~guard ~update))
  in
  let b = Network.Builder.create () in
  let _x = Network.Builder.clock b "x" in
  let _y = Network.Builder.clock b "y" in
  let locations =
    List.mapi
      (fun i inv -> loc (Printf.sprintf "L%d" i) ~invariant:inv)
      invariants
  in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P" ~locations ~edges ~initial:0);
  return (Network.Builder.build b, nl)

let test_reduction_random =
  QCheck2.Test.make ~count:60
    ~name:"reduction on and off agree on random automata"
    QCheck2.Gen.(pair gen_random_net (int_range 0 10))
    (fun ((net, nl), c) ->
      let ok = ref true in
      for l = 0 to nl - 1 do
        let at = Query.at net ~comp:"P" ~loc:(Printf.sprintf "L%d" l) in
        let q = Query.with_guard at (Guard.clock_ge 2 c) in
        let off = verdict (Reach.reach (pin_all net) q) in
        let on = verdict (Reach.reach net q) in
        if off <> on then ok := false;
        for x = 1 to 2 do
          if
            sup_fingerprint (pin_all net) ~at ~clock:x
            <> sup_fingerprint net ~at ~clock:x
          then ok := false
        done
      done;
      !ok && explored net <= explored (pin_all net))

(* And lint itself never crashes on random nets: total by construction *)
let test_lint_total_random =
  QCheck2.Test.make ~count:60 ~name:"lint is total on random automata"
    gen_random_net
    (fun (net, _) ->
      let findings = Lint.run net in
      ignore (Format.asprintf "%a" (Lint.pp_report net) findings);
      true)

(* ------------------------------------------------------------------ *)
(* Satellite: golden file pinning the [lint --json] schema — the exact
   bytes [tamc lint --json flow_demo.ta] prints, positions and query-
   derived observations included.  A schema change (new field, renamed
   pass, different ordering) must consciously regenerate
   lint_golden.json.                                                   *)

let fixture name =
  match List.find_opt Sys.file_exists [ name; "../test/" ^ name ] with
  | Some p -> p
  | Option.None -> Alcotest.failf "fixture %s not found" name

(* mirrors tamc's observed_of_queries: what the model's own queries
   watch feeds the cone pass and the unused/never-reset exemptions *)
let observed_of_queries queries =
  let comps = ref [] and clocks = ref [] and vars = ref [] in
  let add_guard (g : Guard.t) =
    List.iter
      (fun (a : Guard.atom) ->
        clocks := a.Guard.clock :: !clocks;
        vars := Expr.ivars a.Guard.bound @ !vars)
      g.Guard.clocks;
    vars := Expr.bvars g.Guard.data @ !vars
  in
  let add_comps (q : Query.t) =
    comps := List.map fst q.Query.comp_locs @ !comps
  in
  List.iter
    (function
      | E.Deadlock_q -> ()
      | E.Reach_q q ->
          add_comps q;
          add_guard q.Query.guard
      | E.Sup_q { clock; at } ->
          clocks := clock :: !clocks;
          add_comps at;
          add_guard at.Query.guard)
    queries;
  (List.sort_uniq compare !comps, !clocks, !vars)

(* [dir] prefixes every position, as a model loaded from that
   directory would print them *)
let lint_demo_json ?(dir = "") () =
  let { E.net; queries; srcmap } =
    E.load_file ~validate:false (fixture "flow_demo.ta")
  in
  let observed_comps, observed_clocks, observed_vars =
    observed_of_queries queries
  in
  let findings =
    Lint.run ~observed_comps ~observed_clocks ~observed_vars net
  in
  let site_pos = function
    | D.Automaton_site i -> Some srcmap.E.proc_pos.(i)
    | D.Location_site { comp; loc } -> Some srcmap.E.loc_pos.(comp).(loc)
    | D.Edge_site { comp; edge } -> Some srcmap.E.edge_pos.(comp).(edge)
    | D.Network_site | D.Clock_site _ | D.Var_site _ | D.Channel_site _ ->
        Option.None
  in
  let resolve site =
    Option.map
      (fun { Ita_tafmt.Ast.line; col } ->
        Printf.sprintf "%sflow_demo.ta:%d:%d" dir line col)
      (site_pos site)
  in
  let pos site =
    Option.map
      (fun { Ita_tafmt.Ast.line; col } -> (line, col))
      (site_pos site)
  in
  Lint.to_json ~resolve ~pos net findings

let lint_golden () =
  In_channel.with_open_bin (fixture "lint_golden.json") In_channel.input_all

let test_lint_json_golden () =
  Alcotest.(check string) "lint --json bytes" (lint_golden ()) (lint_demo_json ())

(* JSON strings are UTF-8: a position under a non-ASCII directory
   keeps its bytes, where OCaml's %S would write decimal escapes that
   no JSON parser accepts *)
let replace_all ~sub ~by s =
  let n = String.length sub and buf = Buffer.create (String.length s) in
  let rec go i =
    if i + n > String.length s then
      Buffer.add_string buf (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then begin
      Buffer.add_string buf by;
      go (i + n)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let test_lint_json_utf8 () =
  let dir = "mod\xc3\xa8les/" in
  let expected =
    replace_all ~sub:"flow_demo.ta:" ~by:(dir ^ "flow_demo.ta:") (lint_golden ())
  in
  Alcotest.(check string) "positions keep their UTF-8 bytes" expected
    (lint_demo_json ~dir ())

let test_json_string () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) (String.escaped input) expected (D.json_string input))
    [
      ("plain", {|"plain"|});
      ("a \"quoted\" \\ path", {|"a \"quoted\" \\ path"|});
      ("tab\tnew\nline\r", {|"tab\tnew\nline\u000d"|});
      ("mod\xc3\xa8les", "\"mod\xc3\xa8les\"");
      (* a stray Latin-1 byte is not UTF-8: replaced, not passed on *)
      ("mod\xe8les", {|"mod\ufffdles"|});
    ]

let () =
  Alcotest.run "analysis"
    [
      ( "golden",
        [
          Alcotest.test_case "lint --json schema" `Quick test_lint_json_golden;
          Alcotest.test_case "lint --json keeps UTF-8" `Quick
            test_lint_json_utf8;
          Alcotest.test_case "json_string escapes" `Quick test_json_string;
        ] );
      ( "passes",
        [
          Alcotest.test_case "unused clock" `Quick test_unused_clock;
          Alcotest.test_case "never-reset clock" `Quick
            test_never_reset_clock;
          Alcotest.test_case "dead var" `Quick test_dead_var;
          Alcotest.test_case "range overflow" `Quick test_range_overflow;
          Alcotest.test_case "unreachable location" `Quick
            test_unreachable_location;
          Alcotest.test_case "invariant misuse" `Quick test_invariant_misuse;
          Alcotest.test_case "urgent clock guard" `Quick
            test_urgent_clock_guard;
          Alcotest.test_case "channel peer" `Quick test_channel_peer;
          Alcotest.test_case "committed cycle" `Quick test_committed_cycle;
          Alcotest.test_case "zeno cycle" `Quick test_zeno_cycle;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "generated networks clean" `Quick
            test_generated_baseline;
          Alcotest.test_case "example models clean" `Quick
            test_examples_baseline;
        ] );
      ( "reduction-differential",
        [
          Alcotest.test_case "wcrt agrees on model zoo" `Quick
            test_reduction_agrees_on_models;
          Alcotest.test_case "verdicts agree on examples" `Quick
            test_reduction_agrees_on_examples;
          QCheck_alcotest.to_alcotest test_reduction_random;
          QCheck_alcotest.to_alcotest test_lint_total_random;
        ] );
    ]
