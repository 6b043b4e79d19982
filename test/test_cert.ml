(* Certificate tests: every verdict the engine emits must come with a
   certificate the independent checker accepts — across the full
   abstraction x domain-count matrix, on the model zoo, the shipped
   example files and the radionav case study.  Invariant
   certificates must additionally be byte-identical across domain
   counts, and programmatically corrupted certificates must be
   rejected with the right obligation named. *)

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

let reach_cert ?(abstraction = Reach.ExtraLU) ?(domains = 1) net
    (q : Query.t) =
  let snap = ref None in
  match
    Reach.reach ~abstraction ~domains ~snap:(fun s -> snap := Some s) net q
  with
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

let sup_cert ?(abstraction = Reach.ExtraLU) ?(domains = 1)
    ?(initial_ceiling = 64) ?(max_ceiling = 256) net ~at ~clock =
  let snap = ref None in
  match
    Wcrt.sup ~abstraction ~domains ~initial_ceiling ~max_ceiling
      ~snap:(fun s -> snap := Some s)
      net ~at ~clock
  with
  | Wcrt.Sup { value; kind; _ } -> (
      let kind =
        match kind with
        | Wcrt.Attained -> Cert.Attained
        | Wcrt.Approached -> Cert.Approached
      in
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

let check_net_matrix cfg ~abstraction ~domains (name, net) =
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
                match reach_cert ~abstraction ~domains net q with
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
            match sup_cert ~abstraction ~domains net ~at ~clock:x with
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
    (fun (aname, abstraction) ->
      List.iter
        (fun domains ->
          f (Printf.sprintf "[%s/d=%d]" aname domains) ~abstraction ~domains)
        [ 1; 4 ])
    [ ("extram", Reach.ExtraM); ("extralu", Reach.ExtraLU);
      ("lusim", Reach.LuSim) ]

let test_zoo_matrix () =
  matrix (fun cfg ~abstraction ~domains ->
      List.iter (check_net_matrix cfg ~abstraction ~domains) (zoo ()))

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
      matrix (fun cfg ~abstraction ~domains ->
          List.iteri
            (fun i q ->
              match q with
              | E.Deadlock_q -> ()
              | E.Reach_q q -> (
                  match reach_cert ~abstraction ~domains net q with
                  | None -> ()
                  | Some qc ->
                      roundtrip_check
                        (Printf.sprintf "%s %s: query %d" cfg file i)
                        net
                        ~goal:(Cert_emit.goal_of_query q)
                        qc)
              | E.Sup_q { clock; at } -> (
                  match
                    sup_cert ~abstraction ~domains ~initial_ceiling:1024
                      ~max_ceiling:65536 net ~at ~clock
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
(* Radionav: certify the case study's WCRT across the matrix           *)
(* ------------------------------------------------------------------ *)

let test_radionav_certificates () =
  let sys = R.system R.Al_tmc R.Po in
  let scenario = Ita_core.Sysmodel.scenario sys "HandleTMC" in
  let req = Ita_core.Scenario.requirement scenario "TMC" in
  let gen = Ita_core.Gen.generate ~measure:("HandleTMC", req) sys in
  let net = gen.Ita_core.Gen.net in
  let obs = Option.get gen.Ita_core.Gen.observer in
  let at = obs.Ita_core.Gen.seen and clock = obs.Ita_core.Gen.obs_clock in
  matrix (fun cfg ~abstraction ~domains ->
      match
        sup_cert ~abstraction ~domains ~initial_ceiling:1_000_000
          ~max_ceiling:16_000_000 net ~at ~clock
      with
      | None -> Alcotest.failf "%s radionav: no sup verdict" cfg
      | Some qc ->
          roundtrip_check
            (Printf.sprintf "%s radionav al/po" cfg)
            net
            ~goal:(Cert_emit.goal_of_query at)
            qc)

(* ------------------------------------------------------------------ *)
(* Byte stability: the same invariant certificate at any domain count  *)
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
   obligation.  The mutations must interact with the obligations, not
   with the slice mask, so wf_base checks that the engine's slices of
   both wide-frontier queries (reach, and sup over c0) are the
   identity.                                                           *)
(* ------------------------------------------------------------------ *)

let initial_locs (net : Network.t) =
  Array.map (fun (a : Automaton.t) -> a.Automaton.initial) net.Network.automata

let expect_rejection name net ~goal qc expected =
  match Cert.check net ~goal qc with
  | Ok _ -> Alcotest.failf "%s: corrupted certificate was ACCEPTED" name
  | Error f ->
      Alcotest.(check string)
        (name ^ ": rejection names the right obligation")
        (Cert.obligation_name expected)
        (Cert.obligation_name f.Cert.obligation)

let wf_base () =
  let net = Models.wide_frontier () in
  let at = Query.at net ~comp:"P0" ~loc:"B" in
  let unreach = Query.with_guard at (Guard.clock_ge 1 7) in
  let identity ?extra_clocks q =
    let sl, _, _ =
      Reach.slice_query (Reach.default_slicing ()) ?extra_clocks net q
    in
    sl.Ita_analysis.Slice.identity
  in
  Alcotest.(check bool) "wide-frontier: reach slice is the identity" true
    (identity unreach);
  Alcotest.(check bool) "wide-frontier: sup slice is the identity" true
    (identity ~extra_clocks:[ 1 ] at);
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

let test_mutation_shrink_lu () =
  let net, unreach, qc = wf_base () in
  (* location B carries the invariant c0 <= 5: an entry there whose U
     vector is shrunk below 5 can no longer dominate it, so the
     abstraction the certificate claims is unsound — consecution *)
  let shrunk = ref false in
  let entries =
    List.map
      (fun (e : Cert.entry) ->
        if (not !shrunk) && e.Cert.st.Semantics.locs.(0) = 1 then begin
          shrunk := true;
          let u = Array.copy e.Cert.u in
          u.(1) <- 0;
          { e with Cert.u = u }
        end
        else e)
      qc.Cert.entries
  in
  Alcotest.(check bool) "shrink-lu: found a B entry" true !shrunk;
  expect_rejection "shrink-lu" net
    ~goal:(Cert_emit.goal_of_query unreach)
    { qc with Cert.entries }
    Cert.Consecution

let test_mutation_swap_state () =
  let net, unreach, qc = wf_base () in
  let init = initial_locs net in
  (* exchange the discrete states of two stored entries (keeping
     zones and LU vectors in place): both antichains now sit under the
     wrong locations and consecution's coverage collapses *)
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

let test_mutation_stale_version () =
  let net, _, qc = wf_base () in
  let s = Cert.to_string (Cert_emit.make net [ qc ]) in
  let tag = "tamc-cert 1" in
  Alcotest.(check bool) "stale-version: header present" true
    (String.length s > String.length tag
    && String.sub s 0 (String.length tag) = tag);
  let stale =
    "tamc-cert 0" ^ String.sub s (String.length tag) (String.length s - String.length tag)
  in
  match Cert.parse stale with
  | Ok _ -> Alcotest.fail "stale-version: parsed a version-0 certificate"
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
          Alcotest.test_case "shrunk LU vector -> consecution" `Quick
            test_mutation_shrink_lu;
          Alcotest.test_case "swapped discrete state -> consecution" `Quick
            test_mutation_swap_state;
          Alcotest.test_case "stale version tag -> format" `Quick
            test_mutation_stale_version;
        ] );
    ]
