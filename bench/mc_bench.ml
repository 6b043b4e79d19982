(* Zone-engine benchmark: ExtraM vs Extra+LU vs LuSim, machine-readable.

   Runs the WCRT sup-query on the tractable radio-navigation cells
   (the paper's case study; the periodic-with-offset column is the
   acceptance gate) and a full exploration of a synthetic token-ring
   scaling family, under all abstractions, and writes BENCH_mc.json
   with explored/stored/transitions/elapsed per cell per abstraction.

   The abstractions must report identical WCRT results on every
   cell — Extra+LU only wins over ExtraM by exploring fewer symbolic
   states, and LuSim (unextrapolated zones pruned with the a<|LU
   simulation) must never explore more than Extra+LU in aggregate,
   strictly less on the sporadic family where simulation subsumes
   zones that differ only above the L/U constants.

   Every run has the engine's always-on query-directed slicing,
   flow-refined bounds and active-clock reduction; their differential
   oracles live in the test suites (test_slice, test_flow,
   test_analysis).

   Run with: dune exec bench/mc_bench.exe            (full suite)
             BENCH_QUICK=1 dune exec bench/mc_bench.exe   (CI smoke)
   Optional argv.(1): output path (default BENCH_mc.json). *)

open Ita_core
open Ita_ta
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
  cert_check_ms : float;  (* independent checker wall-clock *)
  cert_explore_s : float;  (* the producing exploration's wall-clock *)
  cert_ok : bool;  (* the checker accepted the certificate *)
}

(* Certificate column: re-run the Extra+LU sup-query with snapshot
   capture, emit the certificate and time the independent checker.
   Only sup-query cells carry it — raw explorations have no verdict to
   certify. *)
let certify_sup net ~at ~clock =
  let module Cert = Ita_cert.Cert in
  let module Cert_emit = Ita_mc.Cert_emit in
  let snap = ref Option.None in
  match
    Wcrt.sup ~abstraction:Reach.ExtraLU ~domains:1
      ~snap:(fun s -> snap := Some s)
      net ~at ~clock
  with
  | Wcrt.Sup { value; kind; stats } ->
      let kind =
        match kind with
        | Wcrt.Attained -> Cert.Attained
        | Wcrt.Approached -> Cert.Approached
      in
      let qc =
        Cert_emit.of_snapshot ~index:0
          ~verdict:(Cert.Sup { clock; value; kind })
          (Option.get !snap)
      in
      let goal = Cert_emit.goal_of_query at in
      let t0 = Unix.gettimeofday () in
      let r = Cert.check net ~goal qc in
      Some
        {
          cert_states = List.length qc.Cert.entries;
          cert_check_ms = (Unix.gettimeofday () -. t0) *. 1000.;
          cert_explore_s = stats.Reach.elapsed;
          cert_ok = (match r with Ok _ -> true | Error _ -> false);
        }
  | Wcrt.Goal_unreachable _ | Wcrt.Sup_budget_exhausted _
  | Wcrt.Sup_unbounded _ ->
      Option.None

type cell = {
  name : string;
  kind : string;
  extram : run;
  extralu : run;
  lusim : run;  (* a<|LU simulation subsumption, unextrapolated zones *)
  parallel : par_run option;
      (* Extra+LU re-run on the parallel engine; only computed on
         multi-core hosts and only for cells big enough to amortize
         the domain-spawn overhead, so the speedup column never
         reports noise *)
  cert : cert_run option;
      (* certificate emission + independent check; sup-query cells
         only *)
}

(* every baseline column is pinned to the sequential engine so the
   explored counts stay comparable across machines and TAMC_DOMAINS
   settings; the parallel engine gets its own gated column *)
let bench_par_domains =
  (* BENCH_PAR_DOMAINS forces the worker count (>= 2) or disables the
     column (0 or 1); unset, multi-core hosts get min(4, cores) *)
  match Sys.getenv_opt "BENCH_PAR_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 2 -> Some n
      | Some _ | None -> None)
  | None ->
      let cores = Domain.recommended_domain_count () in
      if cores >= 2 then Some (min 4 cores) else None

let par_min_seq_elapsed = 0.5
(* seconds of sequential Extra+LU work below which the parallel rerun
   is skipped: the ~10 s cv/ChangeVolume cells are the ones meant to
   scale with cores *)

(* ------------------------------------------------------------------ *)
(* Radio-navigation cells: the paper's WCRT sup-queries               *)
(* ------------------------------------------------------------------ *)

let radionav_cell (row : R.row) column =
  let sys = R.system row.R.combo column in
  let s = Sysmodel.scenario sys row.R.scenario in
  let req = Scenario.requirement s row.R.requirement in
  let gen = Gen.generate ~measure:(row.R.scenario, req) sys in
  let obs = Option.get gen.Gen.observer in
  let sup_stats ?(domains = 1) abstraction =
    match
      Wcrt.sup ~abstraction ~domains gen.Gen.net ~at:obs.Gen.seen
        ~clock:obs.Gen.obs_clock
    with
    | Wcrt.Sup { value; stats; _ } ->
        (run_of_stats stats (Printf.sprintf "wcrt=%d" value), stats)
    | Wcrt.Goal_unreachable stats -> (run_of_stats stats "unreachable", stats)
    | Wcrt.Sup_budget_exhausted { stats; _ } ->
        (run_of_stats stats "budget", stats)
    | Wcrt.Sup_unbounded { stats; _ } -> (run_of_stats stats "unbounded", stats)
  in
  let sup abstraction = fst (sup_stats abstraction) in
  let name =
    Printf.sprintf "%s/%s/%s [%s]"
      (match row.R.combo with R.Cv_tmc -> "cv" | R.Al_tmc -> "al")
      row.R.scenario row.R.requirement (R.column_name column)
  in
  let extralu = sup Reach.ExtraLU in
  let parallel =
    match bench_par_domains with
    | Some d when extralu.elapsed >= par_min_seq_elapsed ->
        let run, stats = sup_stats ~domains:d Reach.ExtraLU in
        Some { par_domains = d; par_steals = stats.Reach.steals; par = run }
    | Some _ | None -> None
  in
  {
    name;
    kind = "radionav";
    extram = sup Reach.ExtraM;
    extralu;
    lusim = sup Reach.LuSim;
    parallel;
    cert = certify_sup gen.Gen.net ~at:obs.Gen.seen ~clock:obs.Gen.obs_clock;
  }

let radionav_cells () =
  (* the cheap cells only: everything in the po column, plus the
     AddressLookup-combination pno/sp columns in the full suite *)
  let cells =
    List.map (fun row -> (row, R.Po)) R.table1_rows
    @
    if quick then []
    else
      List.filter_map
        (fun (row : R.row) ->
          if row.R.combo = R.Al_tmc then Some (row, R.Pno) else None)
        R.table1_rows
  in
  List.map (fun (row, col) -> radionav_cell row col) cells

(* ------------------------------------------------------------------ *)
(* Synthetic scaling family: a periodic pacer plus n sporadic clients.
   Each client clock only appears in a lower-bound guard
   ([x_i >= s_i] on its own re-arm loop), so its U constant is 0 and
   Extra+LU immediately forgets how large it has grown — the classic
   LU win on minimum-separation (sporadic) event models, which
   classical ExtraM cannot merge.

   The separation [s_i] is a never-written configuration variable
   declared with generous headroom ([0, 4*S_i], initialized to S_i) —
   the idiom of a tunable architecture parameter.  The builder's static
   scan must take the guard bound's worst case over the declared range
   (L(x_i) = 4*S_i); the dataflow analysis proves s_i is the constant
   S_i, so the flow-refined L is 4x tighter and Extra+LU merges
   correspondingly more states.  ExtraM reads the builder's classical
   constants and merges none of them: its column grows fastest here
   (the family stops at 3 clients for that reason).                    *)
(* ------------------------------------------------------------------ *)

let sporadic_family n =
  let b = Network.Builder.create () in
  let p = Network.Builder.clock b "p" in
  let clocks =
    Array.init n (fun i -> Network.Builder.clock b (Printf.sprintf "x%d" i))
  in
  let period = 4 in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"Pacer"
       ~locations:
         [
           {
             Automaton.loc_name = "P";
             invariant = Guard.clock_le p period;
             kind = Automaton.Normal;
           };
         ]
       ~edges:
         [
           {
             Automaton.src = 0;
             guard = Guard.clock_eq p period;
             sync = Automaton.NoSync;
             update = Update.reset p;
             dst = 0;
           };
         ]
       ~initial:0);
  for i = 0 to n - 1 do
    let x = clocks.(i) in
    let sep = 3 + (2 * i) in
    let sv =
      Network.Builder.int_var b
        (Printf.sprintf "s%d" i)
        ~lo:0 ~hi:(4 * sep) ~init:sep
    in
    Network.Builder.add_automaton b
      (Automaton.make
         ~name:(Printf.sprintf "C%d" i)
         ~locations:
           [
             {
               Automaton.loc_name = "L";
               invariant = Guard.tt;
               kind = Automaton.Normal;
             };
           ]
         ~edges:
           [
             {
               Automaton.src = 0;
               guard = Guard.clock_rel x Guard.Ge (Expr.Var sv);
               sync = Automaton.NoSync;
               update = Update.reset x;
               dst = 0;
             };
           ]
         ~initial:0)
  done;
  Network.Builder.build b

let sporadic_cell n =
  let net = sporadic_family n in
  let explore_stats ?(domains = 1) abstraction =
    match
      Reach.explore ~abstraction ~domains net ~on_store:(fun _ -> ())
    with
    | `Complete stats -> (run_of_stats stats "complete", stats)
    | `Budget_exhausted stats -> (run_of_stats stats "budget", stats)
  in
  let explore abstraction = fst (explore_stats abstraction) in
  let extralu = explore Reach.ExtraLU in
  let parallel =
    match bench_par_domains with
    | Some d when extralu.elapsed >= par_min_seq_elapsed ->
        let run, stats = explore_stats ~domains:d Reach.ExtraLU in
        Some { par_domains = d; par_steals = stats.Reach.steals; par = run }
    | Some _ | None -> None
  in
  {
    name = Printf.sprintf "sporadic %d" n;
    kind = "synthetic";
    extram = explore Reach.ExtraM;
    extralu;
    lusim = explore Reach.LuSim;
    parallel;
    cert = Option.None;
  }

let ring_cells () =
  List.map sporadic_cell (if quick then [ 3 ] else [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* JSON output (by hand; the repo carries no JSON dependency)          *)
(* ------------------------------------------------------------------ *)

let json_run buf r =
  Buffer.add_string buf
    (Printf.sprintf
       {|{"explored": %d, "stored": %d, "transitions": %d, "elapsed_s": %.4f, "result": %S}|}
       r.explored r.stored r.transitions r.elapsed r.result)

let json_cell buf c =
  let ratio =
    if c.extram.explored = 0 then 1.0
    else float_of_int c.extralu.explored /. float_of_int c.extram.explored
  in
  let lusim_ratio =
    if c.extralu.explored = 0 then 1.0
    else float_of_int c.lusim.explored /. float_of_int c.extralu.explored
  in
  Buffer.add_string buf
    (Printf.sprintf
       {|    {"name": %S, "kind": %S, "results_match": %b, "explored_ratio": %.4f, "lusim_results_match": %b, "lusim_explored_ratio": %.4f, |}
       c.name c.kind
       (c.extram.result = c.extralu.result)
       ratio
       (c.extralu.result = c.lusim.result)
       lusim_ratio);
  (match c.cert with
  | None ->
      Buffer.add_string buf
        {|"cert_check_ms": null, "cert_states": null, "cert_ok": null, |}
  | Some cr ->
      Buffer.add_string buf
        (Printf.sprintf
           {|"cert_check_ms": %.2f, "cert_states": %d, "cert_ok": %b, |}
           cr.cert_check_ms cr.cert_states cr.cert_ok));
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
  Buffer.add_string buf {|"extram": |};
  json_run buf c.extram;
  Buffer.add_string buf {|, "extralu": |};
  json_run buf c.extralu;
  Buffer.add_string buf {|, "lusim": |};
  json_run buf c.lusim;
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
  let cells = radionav_cells () @ ring_cells () in
  let mismatches =
    List.filter (fun c -> c.extram.result <> c.extralu.result) cells
  in
  let lusim_mismatches =
    List.filter (fun c -> c.extralu.result <> c.lusim.result) cells
  in
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
      Printf.printf
        "%-40s extram %7d  extralu %7d  lusim %7d  ratio %.3f  lusim-ratio \
         %.3f  [%s]\n\
         %!"
        c.name c.extram.explored c.extralu.explored c.lusim.explored
        (if c.extram.explored = 0 then 1.0
         else float_of_int c.extralu.explored /. float_of_int c.extram.explored)
        (if c.extralu.explored = 0 then 1.0
         else float_of_int c.lusim.explored /. float_of_int c.extralu.explored)
        (if c.extram.result = c.extralu.result && c.extralu.result = c.lusim.result
         then c.extram.result
         else
           Printf.sprintf "MISMATCH %s vs %s vs %s" c.extram.result
             c.extralu.result c.lusim.result);
      (match c.cert with
      | None -> ()
      | Some cr ->
          Printf.printf
            "%-40s cert %5d states  check %.1f ms  explore %.1f ms  [%s]\n%!"
            "" cr.cert_states cr.cert_check_ms (cr.cert_explore_s *. 1000.)
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
  let po_cells = List.filter (fun c -> c.kind = "radionav") cells in
  let total l f = List.fold_left (fun a c -> a + f c) 0 l in
  let ratio_of l =
    let m = total l (fun c -> c.extram.explored) in
    let lu = total l (fun c -> c.extralu.explored) in
    if m = 0 then 1.0 else float_of_int lu /. float_of_int m
  in
  let po_ratio = ratio_of po_cells in
  Printf.printf "radionav explored ratio (extralu / extram): %.3f\n%!" po_ratio;
  let lusim_ratio_of l =
    let lu = total l (fun c -> c.extralu.explored) in
    let ls = total l (fun c -> c.lusim.explored) in
    if lu = 0 then 1.0 else float_of_int ls /. float_of_int lu
  in
  let lusim_ratio = lusim_ratio_of cells in
  let sporadic_cells = List.filter (fun c -> c.kind = "synthetic") cells in
  let lusim_sporadic_ratio = lusim_ratio_of sporadic_cells in
  Printf.printf "lusim explored ratio (lusim / extralu): %.3f\n%!" lusim_ratio;
  Printf.printf "lusim sporadic explored ratio: %.3f\n%!" lusim_sporadic_ratio;
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
  Buffer.add_string buf
    (Printf.sprintf {|  "radionav_explored_ratio": %.4f,|} po_ratio);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    (Printf.sprintf {|  "lusim_explored_ratio": %.4f,|} lusim_ratio);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    (Printf.sprintf
       {|  "lusim_sporadic_explored_ratio": %.4f,|}
       lusim_sporadic_ratio);
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
  if mismatches <> [] then begin
    Printf.eprintf "ERROR: %d cells disagree between abstractions\n"
      (List.length mismatches);
    exit 1
  end;
  if lusim_mismatches <> [] then begin
    Printf.eprintf
      "ERROR: %d cells disagree between Extra+LU and LuSim\n"
      (List.length lusim_mismatches);
    exit 1
  end;
  if lusim_ratio > 1.0 then begin
    Printf.eprintf
      "ERROR: LuSim explored MORE states than Extra+LU in aggregate \
       (ratio %.4f)\n"
      lusim_ratio;
    exit 1
  end;
  if sporadic_cells <> [] && lusim_sporadic_ratio >= 1.0 then begin
    Printf.eprintf
      "ERROR: LuSim shows no strict win on the sporadic family \
       (ratio %.4f)\n"
      lusim_sporadic_ratio;
    exit 1
  end;
  if par_mismatches <> [] then begin
    Printf.eprintf
      "ERROR: %d cells disagree between the sequential and parallel engines\n"
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
  (* certification must stay within 5x the producing exploration's
     wall-clock per cell; sub-50ms explorations are floored so timer
     noise on trivial cells cannot trip the gate *)
  let cert_blowups =
    List.filter
      (fun c ->
        match c.cert with
        | Some cr ->
            cr.cert_check_ms > 5. *. Float.max (cr.cert_explore_s *. 1000.) 50.
        | None -> false)
      cells
  in
  if cert_blowups <> [] then begin
    List.iter
      (fun c ->
        match c.cert with
        | Some cr ->
            Printf.eprintf "  %s: check %.1f ms vs explore %.1f ms\n" c.name
              cr.cert_check_ms (cr.cert_explore_s *. 1000.)
        | None -> ())
      cert_blowups;
    Printf.eprintf
      "ERROR: %d cells exceeded 5x exploration time in certification\n"
      (List.length cert_blowups);
    exit 1
  end
