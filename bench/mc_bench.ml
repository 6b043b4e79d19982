(* Zone-engine benchmark, machine-readable.

   Runs the WCRT sup-query on the tractable radio-navigation cells
   (the paper's case study; the periodic-with-offset column is the
   acceptance gate) and writes BENCH_mc.json with
   explored/stored/transitions/elapsed per cell, a rerun at several
   domains whose WCRT must be byte-identical, and the certificate
   column.

   Every run explores the query's whole network with the engine's one
   zone abstraction (Extra+LU over the flow-refined bounds) and its
   always-on active-clock reduction; their differential oracles live
   in the test suites (test_mc, test_flow, test_analysis).

   Run with: dune exec bench/mc_bench.exe            (full suite)
             BENCH_QUICK=1 dune exec bench/mc_bench.exe   (CI smoke)
   Optional argv.(1): output path (default BENCH_mc.json). *)

open Ita_core
module R = Ita_casestudy.Radionav
module Reach = Ita_mc.Reach
module Wcrt = Ita_mc.Wcrt

let quick = Sys.getenv_opt "BENCH_QUICK" <> None

type run = {
  explored : int;
  stored : int;
  transitions : int;
  elapsed : float;
  result : string;  (* WCRT value or verdict fingerprint *)
}

let run_of_stats (s : Reach.stats) result =
  {
    explored = s.Reach.explored;
    stored = s.Reach.stored;
    transitions = s.Reach.transitions;
    elapsed = s.Reach.elapsed;
    result;
  }

type par_run = {
  par_domains : int;
  par_steals : int;
  par : run;
}

type cert_run = {
  cert_states : int;  (* antichain entries in the certificate *)
  cert_emit_ms : float;  (* Cert_emit.of_snapshot wall-clock *)
  cert_check_ms : float;  (* independent checker wall-clock *)
  cert_explore_s : float;  (* the producing exploration's wall-clock *)
  cert_ok : bool;  (* the checker accepted the certificate *)
}

(* Certificate column: re-run the sup-query with snapshot capture,
   then time the certificate's emission and its independent check.
   [None] when the sup has no exact value to certify. *)
let certify_sup net ~at ~clock =
  let module Cert = Ita_cert.Cert in
  let module Cert_emit = Ita_mc.Cert_emit in
  let snap = ref Option.None in
  match
    Wcrt.sup ~domains:1 ~snap:(fun s -> snap := Some s) net ~at ~clock
  with
  | Wcrt.Sup { value; kind; stats } ->
      let t0 = Unix.gettimeofday () in
      let qc =
        Cert_emit.of_snapshot ~index:0
          ~verdict:(Cert.Sup { clock; value; kind })
          (Option.get !snap)
      in
      let t1 = Unix.gettimeofday () in
      let goal = Cert_emit.goal_of_query at in
      let r = Cert.check net ~goal qc in
      Some
        {
          cert_states = List.length qc.Cert.entries;
          cert_emit_ms = (t1 -. t0) *. 1000.;
          cert_check_ms = (Unix.gettimeofday () -. t1) *. 1000.;
          cert_explore_s = stats.Reach.elapsed;
          cert_ok = (match r with Ok _ -> true | Error _ -> false);
        }
  | Wcrt.Goal_unreachable _ | Wcrt.Sup_budget_exhausted _
  | Wcrt.Sup_unbounded _ ->
      Option.None

type cell = {
  name : string;
  extralu : run;
  parallel : par_run option;
      (* Extra+LU re-run at several domains; only computed on
         multi-core hosts and only for cells big enough to amortize
         the domain-spawn overhead, so the speedup column never
         reports noise *)
  cert : cert_run option;  (* certificate emission + independent check *)
}

(* the extralu column is pinned to one domain, the one schedule whose
   counts are deterministic, so the explored counts stay comparable
   across machines and TAMC_DOMAINS settings; the multi-domain rerun
   gets its own gated column, at min(4, cores) domains on multi-core
   hosts only *)
let bench_par_domains =
  let cores = Domain.recommended_domain_count () in
  if cores >= 2 then Some (min 4 cores) else None

let par_min_seq_elapsed = 0.5
(* seconds of one-domain Extra+LU work below which the parallel rerun
   is skipped: the al/HandleTMC pj cell (about 1.5 s) is the one meant
   to scale with cores *)

(* ------------------------------------------------------------------ *)
(* Radio-navigation cells: the paper's WCRT sup-queries               *)
(* ------------------------------------------------------------------ *)

let radionav_cell (row : R.row) column =
  let sys = R.system row.R.combo column in
  let s = Sysmodel.scenario sys row.R.scenario in
  let req = Scenario.requirement s row.R.requirement in
  let gen = Gen.generate ~measure:(row.R.scenario, req) sys in
  let obs = Option.get gen.Gen.observer in
  let sup_stats domains =
    (* every run starts from a collected heap, so the parallel rerun
       does not pay for collecting the one-domain run's passed list *)
    Gc.compact ();
    match
      Wcrt.sup ~domains gen.Gen.net ~at:obs.Gen.seen ~clock:obs.Gen.obs_clock
    with
    | Wcrt.Sup { value; stats; _ } ->
        (run_of_stats stats (Printf.sprintf "wcrt=%d" value), stats)
    | Wcrt.Goal_unreachable stats -> (run_of_stats stats "unreachable", stats)
    | Wcrt.Sup_budget_exhausted { stats; _ } ->
        (run_of_stats stats "budget", stats)
    | Wcrt.Sup_unbounded { stats; _ } -> (run_of_stats stats "unbounded", stats)
  in
  let name =
    Printf.sprintf "%s/%s/%s [%s]"
      (match row.R.combo with R.Cv_tmc -> "cv" | R.Al_tmc -> "al")
      row.R.scenario row.R.requirement (R.column_name column)
  in
  let extralu = fst (sup_stats 1) in
  let parallel =
    match bench_par_domains with
    | Some d when extralu.elapsed >= par_min_seq_elapsed ->
        let run, stats = sup_stats d in
        Some { par_domains = d; par_steals = stats.Reach.steals; par = run }
    | Some _ | None -> None
  in
  {
    name;
    extralu;
    parallel;
    cert = certify_sup gen.Gen.net ~at:obs.Gen.seen ~clock:obs.Gen.obs_clock;
  }

let radionav_cells () =
  (* the cheap cells only: everything in the po column, plus the
     AddressLookup-combination pno column in the full suite, and in
     both HandleTMC+AddressLookup pj (48 207 states), the one cell that
     explores long enough for the parallel rerun *)
  let al_tmc =
    List.find
      (fun (row : R.row) ->
        row.R.combo = R.Al_tmc && row.R.scenario = "HandleTMC")
      R.table1_rows
  in
  let cells =
    List.map (fun row -> (row, R.Po)) R.table1_rows
    @ (if quick then []
       else
         List.filter_map
           (fun (row : R.row) ->
             if row.R.combo = R.Al_tmc then Some (row, R.Pno) else None)
           R.table1_rows)
    @ [ (al_tmc, R.Pj) ]
  in
  List.map (fun (row, col) -> radionav_cell row col) cells

(* ------------------------------------------------------------------ *)
(* JSON output (by hand; the repo carries no JSON dependency)          *)
(* ------------------------------------------------------------------ *)

let json_run buf r =
  Buffer.add_string buf
    (Printf.sprintf
       {|{"explored": %d, "stored": %d, "transitions": %d, "elapsed_s": %.4f, "result": %S}|}
       r.explored r.stored r.transitions r.elapsed r.result)

let json_cell buf c =
  Buffer.add_string buf (Printf.sprintf {|    {"name": %S, |} c.name);
  (match c.cert with
  | None ->
      Buffer.add_string buf
        {|"cert_emit_ms": null, "cert_check_ms": null, "cert_states": null, "cert_ok": null, |}
  | Some cr ->
      Buffer.add_string buf
        (Printf.sprintf
           {|"cert_emit_ms": %.2f, "cert_check_ms": %.2f, "cert_states": %d, "cert_ok": %b, |}
           cr.cert_emit_ms cr.cert_check_ms cr.cert_states cr.cert_ok));
  (match c.parallel with
  | None ->
      Buffer.add_string buf
        {|"par_domains": null, "par_speedup": null, "par_results_match": null, |}
  | Some p ->
      Buffer.add_string buf
        (Printf.sprintf
           {|"par_domains": %d, "par_speedup": %.4f, "par_results_match": %b, "par_steals": %d, "par": |}
           p.par_domains
           (if p.par.elapsed > 0. then c.extralu.elapsed /. p.par.elapsed
            else 1.0)
           (c.extralu.result = p.par.result)
           p.par_steals);
      json_run buf p.par;
      Buffer.add_string buf ", ");
  Buffer.add_string buf {|"extralu": |};
  json_run buf c.extralu;
  Buffer.add_string buf "}"

(* the producing commit, so a checked-in BENCH_mc.json is attributable;
   null outside a git checkout *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_mc.json" in
  let cells = radionav_cells () in
  let par_mismatches =
    List.filter
      (fun c ->
        match c.parallel with
        | Some p -> c.extralu.result <> p.par.result
        | None -> false)
      cells
  in
  List.iter
    (fun c ->
      Printf.printf "%-40s explored %7d  stored %7d  %.2fs  [%s]\n%!" c.name
        c.extralu.explored c.extralu.stored c.extralu.elapsed c.extralu.result;
      (match c.cert with
      | None -> ()
      | Some cr ->
          Printf.printf
            "%-40s cert %5d states  emit %.1f ms  check %.1f ms  explore \
             %.1f ms  [%s]\n%!"
            "" cr.cert_states cr.cert_emit_ms cr.cert_check_ms
            (cr.cert_explore_s *. 1000.)
            (if cr.cert_ok then "certified" else "REJECTED"));
      match c.parallel with
      | None -> ()
      | Some p ->
          Printf.printf
            "%-40s par x%d  %.2fs -> %.2fs  speedup %.2f  steals %d  [%s]\n%!"
            "" p.par_domains c.extralu.elapsed p.par.elapsed
            (if p.par.elapsed > 0. then c.extralu.elapsed /. p.par.elapsed
             else 1.0)
            p.par_steals
            (if p.par.result = c.extralu.result then "match"
             else
               Printf.sprintf "MISMATCH %s vs %s" c.extralu.result p.par.result))
    cells;
  (match bench_par_domains with
  | None ->
      Printf.printf
        "parallel column skipped: single-core host (speedup would be noise)\n%!"
  | Some d ->
      Printf.printf "parallel column: %d domains on eligible cells\n%!" d);
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf {|  "suite": "mc-zone-engine", "quick": %b,|} quick);
  Buffer.add_string buf "\n";
  (* detected host core count, so null par_domains columns (single-core
     runners skip the parallel rerun) are attributable from the JSON
     alone *)
  Buffer.add_string buf
    (Printf.sprintf {|  "host_cores": %d,|}
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf "\n";
  (* the certificate format the cert_* columns were produced under, so
     a checked-in BENCH_mc.json names the schema it measured *)
  Buffer.add_string buf
    (Printf.sprintf {|  "cert_format_version": %d,|} Ita_cert.Cert.version);
  Buffer.add_string buf "\n";
  (* the producing commit, alongside host_cores, so the numbers are
     attributable from the JSON alone *)
  Buffer.add_string buf
    (match git_commit () with
    | Some h -> Printf.sprintf {|  "git_commit": %S,|} h
    | None -> {|  "git_commit": null,|});
  Buffer.add_string buf "\n";
  Buffer.add_string buf "\n  \"cells\": [\n";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string buf ",\n";
      json_cell buf c)
    cells;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  if par_mismatches <> [] then begin
    Printf.eprintf
      "ERROR: %d cells disagree between one domain and several\n"
      (List.length par_mismatches);
    exit 1
  end;
  let cert_rejections =
    List.filter
      (fun c -> match c.cert with Some cr -> not cr.cert_ok | None -> false)
      cells
  in
  if cert_rejections <> [] then begin
    Printf.eprintf "ERROR: %d cells had their certificate REJECTED\n"
      (List.length cert_rejections);
    exit 1
  end;
  (* certification, emission plus check, must stay within 5x the
     producing exploration's wall-clock per cell; sub-50ms explorations
     are floored so timer noise on trivial cells cannot trip the gate *)
  let cert_blowups =
    List.filter
      (fun c ->
        match c.cert with
        | Some cr ->
            cr.cert_emit_ms +. cr.cert_check_ms
            > 5. *. Float.max (cr.cert_explore_s *. 1000.) 50.
        | None -> false)
      cells
  in
  if cert_blowups <> [] then begin
    List.iter
      (fun c ->
        match c.cert with
        | Some cr ->
            Printf.eprintf
              "  %s: emit %.1f ms + check %.1f ms vs explore %.1f ms\n"
              c.name cr.cert_emit_ms cr.cert_check_ms
              (cr.cert_explore_s *. 1000.)
        | None -> ())
      cert_blowups;
    Printf.eprintf
      "ERROR: %d cells exceeded 5x exploration time in certification\n"
      (List.length cert_blowups);
    exit 1
  end
