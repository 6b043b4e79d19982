(* Certificate tests: every verdict the engine emits must come with a
   certificate the independent checker accepts — at one domain and at
   four, on the model zoo, the shipped example files and the radionav
   case study.  A small model whose passed list does not depend on the
   domain count (test_par pins the zoo's) must get byte-identical
   invariant certificates at both, and programmatically corrupted
   certificates must be rejected with the right obligation named. *)

open Ita_ta
open Ita_mc
module Dbm = Ita_dbm.Dbm
module Cert = Ita_cert.Cert
module R = Ita_casestudy.Radionav
module E = Ita_tafmt.Elaborate

(* ------------------------------------------------------------------ *)
(* Models (the test_par zoo, including the wide-frontier stressor)    *)
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

(* ------------------------------------------------------------------ *)
(* Emission helpers (mirroring what tamc check --cert does)            *)
(* ------------------------------------------------------------------ *)

let reach_cert ?(domains = 1) net (q : Query.t) =
  let snap = ref None in
  match Reach.reach ~domains ~snap:(fun s -> snap := Some s) net q with
  | Reach.Unreachable _ -> (
      match !snap with
      | Some s ->
          Some (Cert_emit.of_snapshot ~index:0 ~verdict:Cert.Unreachable s)
      | None -> Alcotest.fail "unreachable verdict fired no snapshot")
  | Reach.Reachable { witness; _ } ->
      Some
        (Cert_emit.of_witness ~index:0
           (List.filter_map (fun (s : Reach.step) -> s.Reach.via) witness))
  | Reach.Budget_exhausted _ -> None

let sup_cert ?(domains = 1) ?(initial_ceiling = 64) ?(max_ceiling = 256) net
    ~at ~clock =
  let snap = ref None in
  match
    Wcrt.sup ~domains ~max_ceiling
      ~snap:(fun s -> snap := Some s)
      (Models.with_ceiling ~clock initial_ceiling net)
      ~at ~clock
  with
  | Wcrt.Sup { value; kind; _ } -> (
      match !snap with
      | Some s ->
          Some
            (Cert_emit.of_snapshot ~index:0
               ~verdict:(Cert.Sup { clock; value; kind })
               s)
      | None -> Alcotest.fail "sup verdict fired no snapshot")
  | Wcrt.Goal_unreachable _ | Wcrt.Sup_budget_exhausted _
  | Wcrt.Sup_unbounded _ ->
      None

(* serialize, re-parse, then hand to the independent checker: the
   whole pipeline a certificate travels through in production *)
let roundtrip_check name net ~goal qc =
  let c = Cert_emit.make net [ qc ] in
  match Cert.parse (Cert.to_string c) with
  | Error f ->
      Alcotest.failf "%s: roundtrip parse failed [%s] %s" name
        (Cert.obligation_name f.Cert.obligation)
        f.Cert.message
  | Ok c' -> (
      Alcotest.(check int)
        (name ^ ": fingerprint survives the roundtrip")
        c.Cert.fingerprint c'.Cert.fingerprint;
      match c'.Cert.queries with
      | [ qc' ] -> (
          match Cert.check net ~goal qc' with
          | Ok _ -> ()
          | Error f ->
              Alcotest.failf "%s: certificate REJECTED [%s] %s" name
                (Cert.obligation_name f.Cert.obligation)
                f.Cert.message)
      | l -> Alcotest.failf "%s: %d queries after roundtrip" name (List.length l))

let check_net_matrix cfg ~domains (name, net) =
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
                match reach_cert ~domains net q with
                | None -> ()
                | Some qc ->
                    roundtrip_check
                      (Printf.sprintf "%s %s: reach %s >= %d at %s.%s" cfg
                         name net.Network.clock_names.(x) c a.Automaton.name
                         l.Automaton.loc_name)
                      net
                      ~goal:(Cert_emit.goal_of_query q)
                      qc)
              [ 1; 7 ];
            match sup_cert ~domains net ~at ~clock:x with
            | None -> ()
            | Some qc ->
                roundtrip_check
                  (Printf.sprintf "%s %s: sup %s at %s.%s" cfg name
                     net.Network.clock_names.(x) a.Automaton.name
                     l.Automaton.loc_name)
                  net
                  ~goal:(Cert_emit.goal_of_query at)
                  qc
          done)
        a.Automaton.locations)
    net.Network.automata

let matrix f =
  List.iter
    (fun domains -> f (Printf.sprintf "[d=%d]" domains) ~domains)
    [ 1; 4 ]

let test_zoo_matrix () =
  matrix (fun cfg ~domains ->
      List.iter (check_net_matrix cfg ~domains) (zoo ()))

(* ------------------------------------------------------------------ *)
(* The shipped example files, through the same pipeline                *)
(* ------------------------------------------------------------------ *)

let model_path name =
  let candidates =
    [ "../examples/models/" ^ name; "examples/models/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "%s not found" name

let test_examples_matrix () =
  List.iter
    (fun file ->
      let { E.net; queries; _ } = E.load_file (model_path file) in
      matrix (fun cfg ~domains ->
          List.iteri
            (fun i q ->
              match q with
              | E.Deadlock_q -> ()
              | E.Reach_q q -> (
                  match reach_cert ~domains net q with
                  | None -> ()
                  | Some qc ->
                      roundtrip_check
                        (Printf.sprintf "%s %s: query %d" cfg file i)
                        net
                        ~goal:(Cert_emit.goal_of_query q)
                        qc)
              | E.Sup_q { clock; at } -> (
                  match
                    sup_cert ~domains ~initial_ceiling:1024 ~max_ceiling:65536
                      net ~at ~clock
                  with
                  | None -> ()
                  | Some qc ->
                      roundtrip_check
                        (Printf.sprintf "%s %s: query %d" cfg file i)
                        net
                        ~goal:(Cert_emit.goal_of_query at)
                        qc))
            queries))
    [ "two_phase.ta"; "train_gate.ta"; "fischer.ta"; "island_demo.ta" ]

(* ------------------------------------------------------------------ *)
(* Radionav: certify the case study's WCRT at both domain counts       *)
(* ------------------------------------------------------------------ *)

let test_radionav_certificates () =
  let sys = R.system R.Al_tmc R.Po in
  let scenario = Ita_core.Sysmodel.scenario sys "HandleTMC" in
  let req = Ita_core.Scenario.requirement scenario "TMC" in
  let gen = Ita_core.Gen.generate ~measure:("HandleTMC", req) sys in
  let net = gen.Ita_core.Gen.net in
  let obs = Option.get gen.Ita_core.Gen.observer in
  let at = obs.Ita_core.Gen.seen and clock = obs.Ita_core.Gen.obs_clock in
  matrix (fun cfg ~domains ->
      match
        sup_cert ~domains ~initial_ceiling:1_000_000 ~max_ceiling:16_000_000
          net ~at ~clock
      with
      | None -> Alcotest.failf "%s radionav: no sup verdict" cfg
      | Some qc ->
          roundtrip_check
            (Printf.sprintf "%s radionav al/po" cfg)
            net
            ~goal:(Cert_emit.goal_of_query at)
            qc)

(* ------------------------------------------------------------------ *)
(* Byte stability: a schedule-independent passed list, the same bytes *)
(* ------------------------------------------------------------------ *)

let test_domain_count_byte_equality () =
  let net = Models.wide_frontier () in
  let unreach =
    Query.with_guard (Query.at net ~comp:"P0" ~loc:"B") (Guard.clock_ge 1 7)
  in
  let at = Query.at net ~comp:"P0" ~loc:"B" in
  let bytes domains =
    let qcs =
      [
        Option.get (reach_cert ~domains net unreach);
        Option.get (sup_cert ~domains net ~at ~clock:1);
      ]
    in
    Cert.to_string (Cert_emit.make net qcs)
  in
  Alcotest.(check string)
    "wide-frontier: 1-domain and 4-domain certificates are byte-identical"
    (bytes 1) (bytes 4)

(* ------------------------------------------------------------------ *)
(* Mutation rejection: corrupted certificates name the right
   obligation.                                                         *)
(* ------------------------------------------------------------------ *)

let initial_locs (net : Network.t) =
  Array.map (fun (a : Automaton.t) -> a.Automaton.initial) net.Network.automata

(* [reason], when given, must end the rejection message: it pins which
   check of the obligation fired. *)
let expect_rejection ?reason name net ~goal qc expected =
  match Cert.check net ~goal qc with
  | Ok _ -> Alcotest.failf "%s: corrupted certificate was ACCEPTED" name
  | Error f ->
      Alcotest.(check string)
        (name ^ ": rejection names the right obligation")
        (Cert.obligation_name expected)
        (Cert.obligation_name f.Cert.obligation);
      Option.iter
        (fun r ->
          if not (String.ends_with ~suffix:r f.Cert.message) then
            Alcotest.failf "%s: rejected with %S, expected it to end with %S"
              name f.Cert.message r)
        reason

let wf_base () =
  let net = Models.wide_frontier () in
  let unreach =
    Query.with_guard (Query.at net ~comp:"P0" ~loc:"B") (Guard.clock_ge 1 7)
  in
  let qc = Option.get (reach_cert net unreach) in
  (net, unreach, qc)

let test_mutation_drop_state () =
  let net, unreach, qc = wf_base () in
  let init = initial_locs net in
  (* dropping any non-initial state breaks consecution: its stored
     predecessor's successor is no longer covered *)
  let victim =
    List.find
      (fun (e : Cert.entry) -> e.Cert.st.Semantics.locs <> init)
      qc.Cert.entries
  in
  let entries =
    List.filter (fun (e : Cert.entry) -> e != victim) qc.Cert.entries
  in
  expect_rejection "drop-state" net
    ~goal:(Cert_emit.goal_of_query unreach)
    { qc with Cert.entries }
    Cert.Consecution

let test_mutation_widen_zone () =
  let net, unreach, qc = wf_base () in
  (* widen a stored zone at a goal location past the goal guard: the
     invariant no longer implies unreachability *)
  let widened = ref false in
  let entries =
    List.map
      (fun (e : Cert.entry) ->
        if (not !widened) && e.Cert.st.Semantics.locs.(0) = 1 then begin
          widened := true;
          let z = Dbm.copy (List.hd e.Cert.zones) in
          Dbm.free z 1;
          { e with Cert.zones = z :: List.tl e.Cert.zones }
        end
        else e)
      qc.Cert.entries
  in
  Alcotest.(check bool) "widen-zone: found a goal-location entry" true
    !widened;
  expect_rejection "widen-zone" net
    ~goal:(Cert_emit.goal_of_query unreach)
    { qc with Cert.entries }
    Cert.Judgment

let test_mutation_narrow_zone () =
  let net, unreach, qc = wf_base () in
  (* P1 enters C only by edges that reset c1, and C does not constrain
     c1.  Narrowing the one zone of an entry with P1 at C to c1 >= 1
     keeps it closed under delay, but a predecessor's successor that
     has just reset c1 no longer fits: consecution, through a discrete
     step (dropping the entry instead fails the state lookup) *)
  let p1 = Network.component_index net "P1" in
  let c1 = Network.clock_index net "c1" in
  let narrowed = ref false in
  let entries =
    List.map
      (fun (e : Cert.entry) ->
        match e.Cert.zones with
        | [ z ] when (not !narrowed) && e.Cert.st.Semantics.locs.(p1) = 2 ->
            narrowed := true;
            let z = Dbm.copy z in
            Guard.apply e.Cert.st.Semantics.env (Guard.clock_ge c1 1) z;
            { e with Cert.zones = [ z ] }
        | _ -> e)
      qc.Cert.entries
  in
  Alcotest.(check bool) "narrow-zone: found a one-zone entry with P1 at C"
    true !narrowed;
  expect_rejection
    ~reason:"discrete successor escapes the certified antichain"
    "narrow-zone" net
    ~goal:(Cert_emit.goal_of_query unreach)
    { qc with Cert.entries }
    Cert.Consecution

let test_mutation_swap_state () =
  let net, unreach, qc = wf_base () in
  let init = initial_locs net in
  (* exchange the discrete states of two stored entries (keeping their
     zones in place): both antichains now sit under the wrong locations
     and consecution's coverage collapses *)
  let swappable =
    List.filter
      (fun (e : Cert.entry) ->
        e.Cert.st.Semantics.locs <> init && e.Cert.st.Semantics.locs.(0) <> 1)
      qc.Cert.entries
  in
  let a = List.nth swappable 0 and b = List.nth swappable 1 in
  let entries =
    List.map
      (fun (e : Cert.entry) ->
        if e == a then { a with Cert.st = b.Cert.st }
        else if e == b then { b with Cert.st = a.Cert.st }
        else e)
      qc.Cert.entries
  in
  expect_rejection "swap-state" net
    ~goal:(Cert_emit.goal_of_query unreach)
    { qc with Cert.entries }
    Cert.Consecution

let test_mutation_over_claimed_sup () =
  let net = Models.wide_frontier () in
  let at = Query.at net ~comp:"P0" ~loc:"B" in
  let c0 = Network.clock_index net "c0" in
  let qc = Option.get (sup_cert net ~at ~clock:c0) in
  Alcotest.(check bool) "over-claimed-sup: the sup of c0 at P0.B is 5" true
    (qc.Cert.verdict = Cert.Sup { clock = c0; value = 5; kind = Cert.Attained });
  (* raise the upper bound on c0 of every P0-at-B zone from 5 to 6 and
     claim 6: no stored zone exceeds it and some reach it, but B's
     invariant c0 <= 5 holds in every run, so no valuation a run can
     hold there attains it *)
  let widen z =
    let n, m = Dbm.to_encoded z in
    m.(c0 * n) <- (Ita_dbm.Bound.le 6 :> int);
    Dbm.of_encoded n m
  in
  let entries =
    List.map
      (fun (e : Cert.entry) ->
        if e.Cert.st.Semantics.locs.(0) = 1 then
          { e with Cert.zones = List.map widen e.Cert.zones }
        else e)
      qc.Cert.entries
  in
  expect_rejection ~reason:"not attained by any certified state"
    "over-claimed-sup" net
    ~goal:(Cert_emit.goal_of_query at)
    {
      qc with
      Cert.verdict = Cert.Sup { clock = c0; value = 6; kind = Cert.Attained };
      entries;
    }
    Cert.Judgment

let test_mutation_omitted_receiver () =
  let net = Models.broadcast_pair () in
  let q = Query.at net ~comp:"S" ~loc:"P1" in
  (* S reaches P1 by broadcasting on bc, which REN (ok = 1) must
     receive: a label that leaves REN out is not a transition *)
  let labels =
    match (Option.get (reach_cert net q)).Cert.verdict with
    | Cert.Reachable
        [ Semantics.Sync ({ receivers = [ (1, _) ]; _ } as s) ] ->
        [ Semantics.Sync { s with receivers = [] } ]
    | _ -> Alcotest.fail "omitted-receiver: expected one broadcast to REN"
  in
  expect_rejection ~reason:"is not a real transition" "omitted-receiver" net
    ~goal:(Cert_emit.goal_of_query q)
    (Cert_emit.of_witness ~index:0 labels)
    Cert.Witness

let test_mutation_stale_version () =
  let net, _, qc = wf_base () in
  let s = Cert.to_string (Cert_emit.make net [ qc ]) in
  let tag = Printf.sprintf "tamc-cert %d" Cert.version in
  Alcotest.(check bool) "stale-version: header present" true
    (String.length s > String.length tag
    && String.sub s 0 (String.length tag) = tag);
  let stale =
    Printf.sprintf "tamc-cert %d" (Cert.version - 1)
    ^ String.sub s (String.length tag) (String.length s - String.length tag)
  in
  match Cert.parse stale with
  | Ok _ -> Alcotest.fail "stale-version: parsed a previous-version certificate"
  | Error f ->
      Alcotest.(check string) "stale-version: rejection names format"
        (Cert.obligation_name Cert.Format)
        (Cert.obligation_name f.Cert.obligation)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cert"
    [
      ( "matrix",
        [
          Alcotest.test_case "zoo: every verdict certifies" `Quick
            test_zoo_matrix;
          Alcotest.test_case "examples: every verdict certifies" `Quick
            test_examples_matrix;
          Alcotest.test_case "radionav: WCRT certifies" `Slow
            test_radionav_certificates;
        ] );
      ( "stability",
        [
          Alcotest.test_case "1 vs 4 domains: byte-identical" `Quick
            test_domain_count_byte_equality;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "dropped state -> consecution" `Quick
            test_mutation_drop_state;
          Alcotest.test_case "widened zone -> judgment" `Quick
            test_mutation_widen_zone;
          Alcotest.test_case "narrowed zone -> consecution" `Quick
            test_mutation_narrow_zone;
          Alcotest.test_case "swapped discrete state -> consecution" `Quick
            test_mutation_swap_state;
          Alcotest.test_case "over-claimed sup -> judgment" `Quick
            test_mutation_over_claimed_sup;
          Alcotest.test_case "omitted broadcast receiver -> witness" `Quick
            test_mutation_omitted_receiver;
          Alcotest.test_case "stale version tag -> format" `Quick
            test_mutation_stale_version;
        ] );
    ]
