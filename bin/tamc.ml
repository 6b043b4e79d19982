(* tamc: a small standalone model checker for .ta files — check the
   file's reach/sup queries (optionally emitting verdict certificates),
   certify a previously emitted certificate with the independent
   checker, or dump the parsed network. *)

open Cmdliner
module Reach = Ita_mc.Reach
module Wcrt = Ita_mc.Wcrt
module Cert = Ita_cert.Cert
module Cert_emit = Ita_mc.Cert_emit
module E = Ita_tafmt.Elaborate
module D = Ita_analysis.Diagnostic

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ta")

let load ?validate path =
  try Ok (E.load_file ?validate path) with
  | E.Elab_error m -> Error (Printf.sprintf "%s: %s" path m)
  | Ita_tafmt.Parser.Parse_error { line; message } ->
      Error (Printf.sprintf "%s:%d: %s" path line message)
  | Ita_tafmt.Lexer.Lex_error { line; message } ->
      Error (Printf.sprintf "%s:%d: %s" path line message)
  | Ita_ta.Network.Invalid_model m ->
      Error (Printf.sprintf "%s: invalid model: %s" path m)

let run_check path order budget trace domains cert_out =
  match load path with
  | Error m ->
      prerr_endline m;
      1
  | Ok { E.net; queries; _ } ->
      if queries = [] then begin
        print_endline "no queries in file";
        0
      end
      else begin
        let budget =
          match budget with
          | None -> Reach.no_budget
          | Some n -> Reach.states n
        in
        let failed = ref 0 in
        (* per-query certificates, in file order; queries whose verdict
           cannot be certified (deadlock probes, exhausted budgets,
           unbounded sups) are skipped with a note.  Each certificate
           is re-validated in process the moment it is emitted; a
           rejection fails the run. *)
        let want_cert = cert_out <> None in
        let certs = ref [] in
        let certify ~goal (qc : Cert.query_cert) =
          certs := qc :: !certs;
          match Cert.check net ~goal qc with
          | Ok _ -> Format.printf "query %d: self-certified@." qc.Cert.index
          | Error f ->
              incr failed;
              Format.printf "query %d: certificate REJECTED [%s] %s@."
                qc.Cert.index
                (Cert.obligation_name f.Cert.obligation)
                f.Cert.message
        in
        let skip_cert i what =
          if want_cert then
            Format.printf "query %d: note: %s, not certified@." i what
        in
        List.iteri
          (fun i q ->
            match q with
            | E.Deadlock_q -> (
                Format.printf "query %d: deadlock ... @?" i;
                let dead = ref None in
                let net = Ita_analysis.Flow.refine_network net in
                let result =
                  Reach.explore ~order ~budget ?domains net
                    ~on_store:(fun cfg ->
                      if
                        !dead = None
                        && Ita_ta.Semantics.successors net cfg = []
                      then dead := Some cfg.Ita_ta.Semantics.state)
                in
                skip_cert i "deadlock queries have no certificate format";
                match (!dead, result) with
                | Some st, _ ->
                    Format.printf "DEADLOCK at ";
                    Ita_ta.Semantics.pp_state net Format.std_formatter st;
                    Format.printf "@."
                | None, `Complete stats ->
                    Format.printf "deadlock-free (%a)@." Reach.pp_stats stats
                | None, `Budget_exhausted stats ->
                    incr failed;
                    Format.printf "UNKNOWN: budget exhausted (%a)@."
                      Reach.pp_stats stats)
            | E.Reach_q q -> (
                Format.printf "query %d: reach %a ... @?" i
                  (Ita_mc.Query.pp net) q;
                let last_snap = ref None in
                let snap =
                  if want_cert then Some (fun s -> last_snap := Some s)
                  else None
                in
                match Reach.reach ~order ~budget ?domains ?snap net q with
                | Reach.Reachable { witness; stats; _ } ->
                    Format.printf "REACHABLE (%a)@." Reach.pp_stats stats;
                    if trace then
                      Reach.pp_witness net Format.std_formatter witness;
                    if want_cert then
                      certify
                        ~goal:(Cert_emit.goal_of_query q)
                        (Cert_emit.of_witness ~index:i
                           (List.filter_map
                              (fun (s : Reach.step) -> s.Reach.via)
                              witness))
                | Reach.Unreachable stats -> (
                    Format.printf "unreachable (%a)@." Reach.pp_stats stats;
                    match !last_snap with
                    | Some s ->
                        certify
                          ~goal:(Cert_emit.goal_of_query q)
                          (Cert_emit.of_snapshot ~index:i
                             ~verdict:Cert.Unreachable s)
                    | None -> ())
                | Reach.Budget_exhausted stats ->
                    incr failed;
                    skip_cert i "no verdict";
                    Format.printf "UNKNOWN: budget exhausted (%a)@."
                      Reach.pp_stats stats)
            | E.Sup_q { clock; at } -> (
                Format.printf "query %d: sup %s at %a ... @?" i
                  net.Ita_ta.Network.clock_names.(clock)
                  (Ita_mc.Query.pp net) at;
                let last_snap = ref None in
                let snap =
                  if want_cert then Some (fun s -> last_snap := Some s)
                  else None
                in
                match Wcrt.sup ~order ~budget ?domains ?snap net ~at ~clock with
                | Wcrt.Sup { value; kind; stats } -> (
                    Format.printf "%d%s (%a)@." value
                      (match kind with
                      | Wcrt.Attained -> ""
                      | Wcrt.Approached -> " (approached)")
                      Reach.pp_stats stats;
                    match !last_snap with
                    | Some s ->
                        certify
                          ~goal:(Cert_emit.goal_of_query at)
                          (Cert_emit.of_snapshot ~index:i
                             ~verdict:(Cert.Sup { clock; value; kind })
                             s)
                    | None -> if want_cert then skip_cert i "no snapshot surfaced")
                | Wcrt.Goal_unreachable stats ->
                    skip_cert i "goal unreachable: sup has no value to certify";
                    Format.printf "location unreachable (%a)@." Reach.pp_stats
                      stats
                | Wcrt.Sup_unbounded { ceiling; stats } ->
                    incr failed;
                    skip_cert i "no bounded verdict";
                    Format.printf "unbounded (beyond %d; %a)@." ceiling
                      Reach.pp_stats stats
                | Wcrt.Sup_budget_exhausted { observed; stats } ->
                    incr failed;
                    skip_cert i "no verdict";
                    Format.printf "UNKNOWN: budget exhausted (saw %s; %a)@."
                      (match observed with
                      | Some v -> string_of_int v
                      | None -> "nothing")
                      Reach.pp_stats stats))
          queries;
        (match cert_out with
        | None -> ()
        | Some path ->
            let t = Cert_emit.make net (List.rev !certs) in
            Cert.save path t;
            Format.printf "wrote %d certificate(s) to %s@."
              (List.length !certs) path);
        if !failed > 0 then 2 else 0
      end

let check_cmd =
  let budget =
    Arg.(value & opt (some int) None & info [ "budget-states" ] ~doc:"state cap")
  in
  let order =
    Arg.(value & opt Knob.order Reach.Bfs & info [ "order" ] ~doc:"bfs/dfs/rdfs")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"print witness traces")
  in
  let domains =
    Arg.(
      value
      & opt (some Knob.domains) None
      & info [ "domains" ]
          ~doc:
            "worker domains for the exploration (default: the \
             TAMC_DOMAINS environment variable, else the machine's core \
             count); 1 runs one worker on the calling domain")
  in
  let cert_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert" ]
          ~doc:
            "write an independently checkable certificate for every \
             certified verdict to $(docv), re-validating each in process \
             with the independent checker first (a rejection fails the \
             run); verify the file again with $(b,tamc certify)"
          ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"run the queries of a .ta file")
    Term.(
      const run_check $ file_arg $ order $ budget $ trace $ domains $ cert_out)

(* certify: re-elaborate the model from source and verify a previously
   emitted certificate with the independent checker ([Ita_cert]).
   Exit codes: 0 = everything certified; 1 = I/O or usage errors; 3-9 =
   the first failed obligation ([Cert.exit_code]): format 3,
   fingerprint 4, initiation 6, consecution 7, judgment 8, witness 9
   (5 is unassigned). *)

let run_certify path cert_path json =
  match load path with
  | Error m ->
      prerr_endline m;
      1
  | Ok { E.net; queries; _ } -> (
      match Cert.load cert_path with
      | Error f ->
          if json then
            Printf.printf
              "{\"certificate\": %s, \"fingerprint-ok\": false, \
               \"results\": [{\"status\": \"failed\", \"obligation\": %s, \
               \"detail\": %s}]}\n"
              (D.json_string cert_path)
              (D.json_string (Cert.obligation_name f.Cert.obligation))
              (D.json_string f.Cert.message)
          else
            Printf.printf "FAILED [%s] %s\n"
              (Cert.obligation_name f.Cert.obligation)
              f.Cert.message;
          Cert.exit_code f.Cert.obligation
      | Ok t ->
          let fp_ok = Cert.fingerprint net = t.Cert.fingerprint in
          let queries = Array.of_list queries in
          let results =
            if not fp_ok then []
            else
              List.map
                (fun (qc : Cert.query_cert) ->
                  let i = qc.Cert.index in
                  let mismatch m =
                    Error { Cert.obligation = Cert.Format; message = m }
                  in
                  let r =
                    if i < 0 || i >= Array.length queries then
                      mismatch
                        (Printf.sprintf "the model has no query %d" i)
                    else
                      match (queries.(i), qc.Cert.verdict) with
                      | E.Reach_q q, (Cert.Unreachable | Cert.Reachable _) ->
                          Cert.check net ~goal:(Cert_emit.goal_of_query q) qc
                      | E.Sup_q { clock; at }, Cert.Sup { clock = c; _ }
                        when c = clock ->
                          Cert.check net ~goal:(Cert_emit.goal_of_query at) qc
                      | E.Deadlock_q, _ ->
                          mismatch "deadlock queries have no certificates"
                      | (E.Reach_q _ | E.Sup_q _), _ ->
                          mismatch
                            "the certified verdict does not match the query's \
                             kind"
                  in
                  (i, r))
                t.Cert.queries
          in
          if json then begin
            let result_json (i, r) =
              match r with
              | Ok (st : Cert.stats) ->
                  Printf.sprintf
                    "{\"query\": %d, \"status\": \"ok\", \"states\": %d, \
                     \"zones\": %d}"
                    i st.Cert.checked_states st.Cert.checked_zones
              | Error (f : Cert.failure) ->
                  Printf.sprintf
                    "{\"query\": %d, \"status\": \"failed\", \"obligation\": \
                     %s, \"detail\": %s}"
                    i
                    (D.json_string (Cert.obligation_name f.Cert.obligation))
                    (D.json_string f.Cert.message)
            in
            Printf.printf
              "{\"certificate\": %s, \"fingerprint-ok\": %b, \"results\": \
               [%s]}\n"
              (D.json_string cert_path) fp_ok
              (String.concat ", " (List.map result_json results))
          end
          else begin
            if not fp_ok then
              Printf.printf
                "FAILED [fingerprint] the certificate was produced for a \
                 different model\n"
            else
              List.iter
                (fun (i, r) ->
                  match r with
                  | Ok (st : Cert.stats) ->
                      if st.Cert.checked_states = 0 then
                        Printf.printf "query %d: certified (witness replay)\n"
                          i
                      else
                        Printf.printf
                          "query %d: certified (%d states, %d successor \
                           checks)\n"
                          i st.Cert.checked_states st.Cert.checked_zones
                  | Error (f : Cert.failure) ->
                      Printf.printf "query %d: FAILED [%s] %s\n" i
                        (Cert.obligation_name f.Cert.obligation)
                        f.Cert.message)
                results
          end;
          if not fp_ok then Cert.exit_code Cert.Fingerprint
          else
            let first_failure =
              List.find_map
                (fun (_, r) ->
                  match r with
                  | Ok _ -> None
                  | Error (f : Cert.failure) -> Some f.Cert.obligation)
                results
            in
            (match first_failure with
            | Some o -> Cert.exit_code o
            | None -> 0))

let certify_cmd =
  let cert_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "cert" ] ~doc:"the certificate file to verify" ~docv:"FILE")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"machine-readable verdict on stdout instead of the human format")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "verify a certificate emitted by $(b,tamc check --cert) with the \
          independent checker: the model is re-elaborated from source and \
          every stored invariant is re-validated with naive reference \
          semantics, sharing no exploration code with the engine")
    Term.(const run_certify $ file_arg $ cert_arg $ json)

let run_show path =
  match load path with
  | Error m ->
      prerr_endline m;
      1
  | Ok { E.net; _ } ->
      Ita_ta.Pretty.pp_network Format.std_formatter net;
      Format.print_newline ();
      0

let show_cmd =
  Cmd.v
    (Cmd.info "show" ~doc:"print the parsed network")
    Term.(const run_show $ file_arg)

(* lint: run the static analyzer on the file's network, mapping each
   finding back to its declaration's source position.  The file is
   elaborated without the builder's urgent/broadcast guard checks so
   those turn into diagnostics instead of a hard failure. *)

module Lint = Ita_analysis.Lint

(* Clocks and variables the file's queries mention are observed from
   outside the model and must not count as unused/dead. *)
let observed_of_queries queries =
  let comps = ref [] and clocks = ref [] and vars = ref [] in
  let add_guard (g : Ita_ta.Guard.t) =
    List.iter
      (fun (a : Ita_ta.Guard.atom) ->
        clocks := a.Ita_ta.Guard.clock :: !clocks;
        vars := Ita_ta.Expr.ivars a.Ita_ta.Guard.bound @ !vars)
      g.Ita_ta.Guard.clocks;
    vars := Ita_ta.Expr.bvars g.Ita_ta.Guard.data @ !vars
  in
  let add_comps (q : Ita_mc.Query.t) =
    comps := List.map fst q.Ita_mc.Query.comp_locs @ !comps
  in
  List.iter
    (function
      | E.Deadlock_q -> ()
      | E.Reach_q q ->
          add_comps q;
          add_guard q.Ita_mc.Query.guard
      | E.Sup_q { clock; at } ->
          clocks := clock :: !clocks;
          add_comps at;
          add_guard at.Ita_mc.Query.guard)
    queries;
  (List.sort_uniq compare !comps, !clocks, !vars)

(* map diagnostic sites to source positions through the elaborator's
   source map; shared by lint (file:line:col prefixes, deterministic
   ordering) and flow (per-location annotations) *)
let site_pos (srcmap : E.srcmap) = function
  | D.Automaton_site i -> Some srcmap.E.proc_pos.(i)
  | D.Location_site { comp; loc } -> Some srcmap.E.loc_pos.(comp).(loc)
  | D.Edge_site { comp; edge } -> Some srcmap.E.edge_pos.(comp).(edge)
  | D.Network_site | D.Clock_site _ | D.Var_site _ | D.Channel_site _ -> None

let run_lint path fail_on json =
  match load ~validate:false path with
  | Error m ->
      prerr_endline m;
      1
  | Ok { E.net; queries; srcmap } ->
      let observed_comps, observed_clocks, observed_vars =
        observed_of_queries queries
      in
      let findings =
        Lint.run ~observed_comps ~observed_clocks ~observed_vars net
      in
      let pos_str { Ita_tafmt.Ast.line; col } =
        Printf.sprintf "%s:%d:%d" path line col
      in
      let resolve site = Option.map pos_str (site_pos srcmap site) in
      let pos site =
        Option.map
          (fun { Ita_tafmt.Ast.line; col } -> (line, col))
          (site_pos srcmap site)
      in
      if json then print_string (Lint.to_json ~resolve ~pos net findings)
      else Lint.pp_report ~resolve ~pos net Format.std_formatter findings;
      if
        List.exists
          (fun (d : D.t) -> D.compare_severity d.D.severity fail_on >= 0)
          findings
      then 1
      else 0

let lint_cmd =
  let fail_on =
    Arg.(
      value
      & opt Knob.severity D.Error
      & info [ "fail-on" ]
          ~doc:"lowest severity that makes the exit code nonzero \
                (hint/info/warning/error)")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"machine-readable report on stdout instead of the human format")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"static well-formedness analysis of a .ta file's network")
    Term.(const run_lint $ file_arg $ fail_on $ json)

(* flow: print the abstract-interpretation results — per-location
   variable intervals (with source positions) and the inferred global
   ranges. *)

let run_flow path =
  match load path with
  | Error m ->
      prerr_endline m;
      1
  | Ok { E.net; srcmap; _ } ->
      let fa = Ita_analysis.Flow.analyze net in
      let pos_str { Ita_tafmt.Ast.line; col } =
        Printf.sprintf "%s:%d:%d" path line col
      in
      let resolve = function
        | `Automaton i -> Some (pos_str srcmap.E.proc_pos.(i))
        | `Location (i, l) -> Some (pos_str srcmap.E.loc_pos.(i).(l))
      in
      Ita_analysis.Flow.pp ~resolve fa Format.std_formatter ();
      0

let flow_cmd =
  Cmd.v
    (Cmd.info "flow"
       ~doc:
         "abstract-interpretation dataflow analysis of a .ta file: \
          per-location variable intervals and global ranges")
    Term.(const run_flow $ file_arg)

(* slice: report each query's cone of influence — what lies outside it,
   components mapped back to their declarations' source positions.  The
   checker explores the whole network regardless. *)

let run_slice path =
  let slicing = Reach.default_slicing () in
  match load path with
  | Error m ->
      prerr_endline m;
      1
  | Ok { E.net; queries; srcmap } ->
      let pos_str { Ita_tafmt.Ast.line; col } =
        Printf.sprintf "%s:%d:%d" path line col
      in
      let resolve site = Option.map pos_str (site_pos srcmap site) in
      if queries = [] then begin
        print_endline "no queries in file";
        0
      end
      else begin
        List.iteri
          (fun i q ->
            match q with
            | E.Deadlock_q ->
                Format.printf
                  "query %d: deadlock — a whole-network property, no cone@." i
            | E.Reach_q q ->
                Format.printf "query %d: reach %a@." i (Ita_mc.Query.pp net) q;
                let sl, _, _ = Reach.slice_query slicing net q in
                Ita_analysis.Slice.pp_report ~resolve Format.std_formatter sl
            | E.Sup_q { clock; at } ->
                Format.printf "query %d: sup %s at %a@." i
                  net.Ita_ta.Network.clock_names.(clock)
                  (Ita_mc.Query.pp net) at;
                let sl, _, _ =
                  Reach.slice_query slicing ~extra_clocks:[ clock ] net at
                in
                Ita_analysis.Slice.pp_report ~resolve Format.std_formatter sl)
          queries;
        0
      end

let slice_cmd =
  Cmd.v
    (Cmd.info "slice"
       ~doc:
         "report each query's cone of influence: the components, clocks \
          and variables outside it and the dead edges inside it, with \
          source positions")
    Term.(const run_slice $ file_arg)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "tamc" ~doc:"timed-automata model checker for .ta files")
          [ check_cmd; certify_cmd; show_cmd; slice_cmd; lint_cmd; flow_cmd ]))
