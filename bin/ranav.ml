(* ranav: analyze the in-car radio navigation case study with the four
   techniques of the paper — timed-automata model checking (this
   library's core), discrete-event simulation (POOSL stand-in),
   busy-window analysis (SymTA/S stand-in) and modular performance
   analysis (MPA stand-in). *)

open Cmdliner
open Ita_core
module R = Ita_casestudy.Radionav
module Reach = Ita_mc.Reach

(* ------------------------------------------------------------------ *)
(* Shared argument parsing                                             *)
(* ------------------------------------------------------------------ *)

let combo_conv =
  let parse = function
    | "cv" -> Ok R.Cv_tmc
    | "al" -> Ok R.Al_tmc
    | s -> Error (`Msg (Printf.sprintf "unknown combo %S (cv or al)" s))
  in
  let print ppf c =
    Format.pp_print_string ppf (match c with R.Cv_tmc -> "cv" | R.Al_tmc -> "al")
  in
  Arg.conv (parse, print)

let column_conv =
  let parse = function
    | "po" -> Ok R.Po
    | "pno" -> Ok R.Pno
    | "sp" -> Ok R.Sp
    | "pj" -> Ok R.Pj
    | "bur" -> Ok R.Bur
    | s -> Error (`Msg (Printf.sprintf "unknown column %S" s))
  in
  let print ppf c = Format.pp_print_string ppf (R.column_name c) in
  Arg.conv (parse, print)

let abstraction_arg =
  Arg.(
    value
    & opt Knob.abstraction (Reach.default_abstraction ())
    & info [ "abstraction" ]
        ~doc:
          "zone abstraction: extralu (default), lusim (store \
           unextrapolated zones, subsume with the a<|LU simulation — \
           coarsest) or extram (oracle)")

(* the parser above cannot know the seed yet; thread it in here *)
let seeded_order order seed =
  match order with Reach.Random_dfs _ -> Reach.Random_dfs seed | o -> o

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~doc:"PRNG seed for the rdfs search order")

let combo_arg =
  Arg.(value & opt combo_conv R.Cv_tmc & info [ "combo" ] ~doc:"cv or al")

let column_arg =
  Arg.(value & opt column_conv R.Pno & info [ "column" ] ~doc:"po/pno/sp/pj/bur")

let order_arg =
  Arg.(value & opt Knob.order Reach.Bfs & info [ "order" ] ~doc:"bfs/dfs/rdfs")

let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-states" ] ~doc:"state budget for structured testing")

let domains_arg =
  Arg.(
    value
    & opt (some Knob.domains) None
    & info [ "domains" ]
        ~doc:
          "worker domains for the zone exploration (default: the \
           TAMC_DOMAINS environment variable, else the machine's core \
           count); 1 selects the sequential engine")

(* ------------------------------------------------------------------ *)
(* wcrt                                                                *)
(* ------------------------------------------------------------------ *)

let run_wcrt combo column scenario requirement order seed budget probe_start_ms
    abstraction domains certify cert_out =
  let order = seeded_order order seed in
  let sys = R.system combo column in
  let method_ =
    match budget with
    | None -> Analyze.Exhaustive
    | Some states ->
        Analyze.Structured_testing
          {
            order = (match order with Reach.Bfs -> Reach.Dfs | o -> o);
            budget = Reach.states states;
            start = Units.us_of_ms probe_start_ms;
            step = Units.us_of_ms 10.0;
          }
  in
  let r =
    Analyze.wcrt ~method_ ~order ~abstraction ?domains ~certify ?cert_out sys
      ~scenario ~requirement
  in
  Format.printf "%s %s/%s [%s]: uncontended %a ms, wcrt %a ms (%d states, %.2fs)@."
    (match combo with R.Cv_tmc -> "cv" | R.Al_tmc -> "al")
    scenario requirement (R.column_name column) Units.pp_ms
    r.Analyze.uncontended_us Analyze.pp_outcome r.Analyze.outcome
    r.Analyze.explored r.Analyze.elapsed;
  (match cert_out with
  | Some path when r.Analyze.certified <> None || not certify ->
      Format.printf "wrote certificate to %s@." path
  | _ -> ());
  match r.Analyze.certified with
  | None ->
      if certify then
        Format.printf
          "not certified: no exact WCRT verdict to build an invariant from@."
  | Some (Ok st) ->
      Format.printf "certified (%d states, %d successor checks)@."
        st.Ita_cert.Cert.checked_states st.Ita_cert.Cert.checked_zones
  | Some (Error f) ->
      Format.printf "certificate REJECTED [%s] %s@."
        (Ita_cert.Cert.obligation_name f.Ita_cert.Cert.obligation)
        f.Ita_cert.Cert.message;
      exit (Ita_cert.Cert.exit_code f.Ita_cert.Cert.obligation)

let wcrt_cmd =
  let scenario =
    Arg.(value & opt string "HandleTMC" & info [ "scenario" ] ~doc:"scenario name")
  in
  let requirement =
    Arg.(value & opt string "TMC" & info [ "requirement" ] ~doc:"requirement name")
  in
  let probe_start =
    Arg.(
      value & opt float 100.0
      & info [ "probe-start-ms" ] ~doc:"first probed bound (ms)")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "re-validate the WCRT verdict in process with the independent \
             certificate checker (naive reference semantics, no shared \
             exploration code); a rejected certificate exits with the failed \
             obligation's code")
  in
  let cert_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert" ]
          ~doc:
            "also write the WCRT certificate to $(docv) for offline \
             validation"
          ~docv:"FILE")
  in
  Cmd.v (Cmd.info "wcrt" ~doc:"model-check one requirement")
    Term.(
      const run_wcrt $ combo_arg $ column_arg $ scenario $ requirement
      $ order_arg $ seed_arg $ budget_arg $ probe_start $ abstraction_arg
      $ domains_arg $ certify $ cert_out)

(* ------------------------------------------------------------------ *)
(* table1                                                              *)
(* ------------------------------------------------------------------ *)

(* The ChangeVolume-combination pno/sp cells and all pj/bur cells have
   state spaces that defeated UPPAAL too; like the paper we fall back
   to budgeted depth-first lower-bound probing for them unless the
   caller forces exhaustiveness. *)
let analyze_cell ?(force_exhaustive = false) (row : R.row) column ~budget =
  let sys = R.system row.R.combo column in
  let expensive =
    (row.R.combo = R.Cv_tmc && column <> R.Po)
    || ((column = R.Pj || column = R.Bur) && row.R.requirement = "TMC")
  in
  let probe states =
    let start =
      match (row.R.combo, row.R.requirement) with
      | R.Cv_tmc, "TMC" -> 350_000
      | _, "TMC" -> 172_106
      | _, _ -> 14_080
    in
    Analyze.Structured_testing
      {
        order = Reach.Dfs;
        budget = Reach.states states;
        start;
        step = 25_000;
      }
  in
  let method_ =
    match (budget, expensive && not force_exhaustive) with
    | Some states, _ -> probe states
    | None, true -> probe 60_000
    | None, false -> Analyze.Exhaustive
  in
  Analyze.wcrt ~method_ sys ~scenario:row.R.scenario
    ~requirement:row.R.requirement

let run_table1 columns budget rows_filter full =
  let columns =
    if columns = [] then [ R.Po; R.Pno; R.Sp; R.Pj; R.Bur ] else columns
  in
  Format.printf
    "Table 1: worst-case response times (ms), per environment model@.";
  Format.printf "%-32s" "Requirement";
  List.iter (fun c -> Format.printf " %12s" (R.column_name c)) columns;
  Format.printf "@.";
  List.iteri
    (fun i (row : R.row) ->
      if rows_filter = [] || List.mem i rows_filter then begin
        Format.printf "%-32s" row.R.label;
        List.iter
          (fun c ->
            let r = analyze_cell ~force_exhaustive:full row c ~budget in
            Format.printf " %12s"
              (Format.asprintf "%a" Analyze.pp_outcome r.Analyze.outcome))
          columns;
        Format.printf "@."
      end)
    R.table1_rows

let table1_cmd =
  let columns =
    Arg.(
      value
      & opt (list column_conv) []
      & info [ "columns" ] ~doc:"subset of po,pno,sp,pj,bur (default all)")
  in
  let rows =
    Arg.(
      value & opt (list int) []
      & info [ "rows" ] ~doc:"row indices to compute (default all)")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"exhaustive search even on the huge cells (hours)")
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:"regenerate the paper's Table 1 (WCRT per event model)")
    Term.(const run_table1 $ columns $ budget_arg $ rows $ full)

(* ------------------------------------------------------------------ *)
(* table2                                                              *)
(* ------------------------------------------------------------------ *)

let run_table2 budget runs horizon_s =
  let horizon_us = int_of_float (horizon_s *. 1e6) in
  Format.printf
    "Table 2: WCRT (ms) - model checking vs simulation vs analytic bounds@.";
  Format.printf "%-32s %10s %10s %10s %10s %10s@." "Requirement" "mc(po)"
    "mc(pno)" "sim(pno)" "symta(pno)" "mpa(pno)";
  List.iter
    (fun (row : R.row) ->
      let cell col =
        let r = analyze_cell row col ~budget in
        Format.asprintf "%a" Analyze.pp_outcome r.Analyze.outcome
      in
      let mc_po = cell R.Po in
      let mc_pno = cell R.Pno in
      let sys_pno = R.system row.R.combo R.Pno in
      let sim =
        Format.asprintf "%a" Units.pp_ms
          (Ita_sim.Engine.max_response ~runs ~horizon_us sys_pno
             ~scenario:row.R.scenario ~requirement:row.R.requirement)
      in
      let analytic bound =
        match
          bound sys_pno ~scenario:row.R.scenario
            ~requirement:row.R.requirement
        with
        | Ok v -> Format.asprintf "%a" Units.pp_ms v
        | Error _ -> "diverged"
      in
      let symta =
        analytic (fun sys -> Ita_symta.Sysanalysis.wcrt_bound sys)
      in
      let mpa = analytic (fun sys -> Ita_rtc.Gpc.wcrt_bound sys) in
      Format.printf "%-32s %10s %10s %10s %10s %10s@." row.R.label mc_po
        mc_pno sim symta mpa)
    R.table1_rows

let table2_cmd =
  let runs =
    Arg.(value & opt int 10 & info [ "runs" ] ~doc:"simulation runs (seeds)")
  in
  let horizon =
    Arg.(
      value & opt float 60.0
      & info [ "horizon-s" ] ~doc:"simulated seconds per run")
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"regenerate the paper's Table 2 (tool comparison)")
    Term.(const run_table2 $ budget_arg $ runs $ horizon)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let run_simulate combo column runs horizon_s =
  let sys = R.system combo column in
  let horizon_us = int_of_float (horizon_s *. 1e6) in
  let table = Hashtbl.create 8 in
  for seed = 1 to runs do
    let stats = Ita_sim.Engine.run ~seed ~horizon_us sys in
    List.iter
      (fun (s : Ita_sim.Engine.sample) ->
        let key = (s.Ita_sim.Engine.scenario, s.Ita_sim.Engine.requirement) in
        let cur = try Hashtbl.find table key with Not_found -> (0, 0, 0) in
        let n, total, worst = cur in
        Hashtbl.replace table key
          ( n + 1,
            total + s.Ita_sim.Engine.response_us,
            max worst s.Ita_sim.Engine.response_us ))
      stats.Ita_sim.Engine.samples
  done;
  Format.printf "%d runs of %.1fs simulated time each@." runs horizon_s;
  Hashtbl.iter
    (fun (scen, req) (n, total, worst) ->
      Format.printf "%-14s %-4s: %7d samples, mean %a ms, max %a ms@." scen req
        n Units.pp_ms (total / max 1 n) Units.pp_ms worst)
    table

let simulate_cmd =
  let runs = Arg.(value & opt int 20 & info [ "runs" ] ~doc:"seeds") in
  let horizon =
    Arg.(value & opt float 60.0 & info [ "horizon-s" ] ~doc:"seconds per run")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"discrete-event simulation (POOSL baseline)")
    Term.(const run_simulate $ combo_arg $ column_arg $ runs $ horizon)

(* ------------------------------------------------------------------ *)
(* show-model                                                          *)
(* ------------------------------------------------------------------ *)

let run_show_model combo column measure =
  let sys = R.system combo column in
  let measure =
    Option.map
      (fun scen ->
        let s = Sysmodel.scenario sys scen in
        let req = List.hd s.Scenario.requirements in
        (scen, req))
      measure
  in
  let gen = Gen.generate ?measure sys in
  Ita_ta.Pretty.pp_network Format.std_formatter gen.Gen.net;
  Format.print_newline ()

let show_model_cmd =
  let measure =
    Arg.(
      value
      & opt (some string) None
      & info [ "measure" ] ~doc:"scenario whose measuring automaton to include")
  in
  Cmd.v
    (Cmd.info "show-model"
       ~doc:"print the generated timed-automata network (Figures 4-9)")
    Term.(const run_show_model $ combo_arg $ column_arg $ measure)

(* ------------------------------------------------------------------ *)
(* sweep (extension: the parameter sweep the paper says UPPAAL lacks)  *)
(* ------------------------------------------------------------------ *)

let run_sweep combo column kbps_list budget =
  Format.printf
    "HandleTMC WCRT (ms) vs bus bandwidth - all four techniques@.";
  Format.printf "%8s %12s %12s %12s %12s@." "kbps" "mc" "sim" "symta" "mpa";
  List.iter
    (fun kbps ->
      let base = R.system combo column in
      let resources =
        List.map
          (fun (r : Resource.t) ->
            if Resource.is_link r then
              Resource.link r.Resource.name ~kbps
                ~policy:r.Resource.policy
            else r)
          base.Sysmodel.resources
      in
      let sys = { base with Sysmodel.resources } in
      let mc =
        let method_ =
          match budget with
          | None -> Analyze.Exhaustive
          | Some states ->
              Analyze.Structured_testing
                {
                  order = Reach.Dfs;
                  budget = Reach.states states;
                  start = 100_000;
                  step = 25_000;
                }
        in
        let r =
          Analyze.wcrt ~method_ sys ~scenario:"HandleTMC" ~requirement:"TMC"
        in
        Format.asprintf "%a" Analyze.pp_outcome r.Analyze.outcome
      in
      let sim =
        Format.asprintf "%a" Units.pp_ms
          (Ita_sim.Engine.max_response ~runs:5 ~horizon_us:30_000_000 sys
             ~scenario:"HandleTMC" ~requirement:"TMC")
      in
      let bound_cell b =
        match b with
        | Ok v -> Format.asprintf "%a" Units.pp_ms v
        | Error _ -> "diverged"
      in
      let symta =
        bound_cell
          (Ita_symta.Sysanalysis.wcrt_bound sys ~scenario:"HandleTMC"
             ~requirement:"TMC")
      in
      let mpa =
        bound_cell
          (Ita_rtc.Gpc.wcrt_bound sys ~scenario:"HandleTMC" ~requirement:"TMC")
      in
      Format.printf "%8.0f %12s %12s %12s %12s@." kbps mc sim symta mpa)
    kbps_list

let sweep_cmd =
  let kbps =
    Arg.(
      value
      & opt (list float) [ 48.0; 60.0; 72.0; 96.0; 120.0 ]
      & info [ "kbps" ] ~doc:"bus bandwidths to sweep")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "bus-bandwidth design-space sweep with all four techniques (the \
          parameter sweep the paper notes UPPAAL could not do)")
    Term.(const run_sweep $ combo_arg $ column_arg $ kbps $ budget_arg)

(* ------------------------------------------------------------------ *)
(* explore: design-space exploration over architecture candidates      *)
(* ------------------------------------------------------------------ *)

let technique_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Ita_dse.Job.technique_of_string s)
  in
  let print ppf t = Format.pp_print_string ppf (Ita_dse.Job.technique_name t) in
  Arg.conv (parse, print)

let run_explore combo column scenario requirement techniques mmi_mips rad_mips
    nav_mips bus_kbps decode_on jobs timeout_s cache_dir no_cache mc_states
    mc_seconds mc_abstraction mc_domains mc_certify sim_runs sim_horizon_s
    inject_crash isolation =
  let open Ita_dse in
  let space =
    Spaces.radionav ~combo ~column ~mmi_mips ~rad_mips ~nav_mips ~bus_kbps
      ~decode_on ()
  in
  let cache = if no_cache then None else Some (Cache.create ~dir:cache_dir) in
  let budget =
    {
      Job.mc_states;
      mc_seconds;
      mc_abstraction;
      mc_domains;
      mc_certify;
      sim_runs;
      sim_horizon_us = int_of_float (sim_horizon_s *. 1e6);
    }
  in
  let report =
    Explore.run ?isolation ?jobs ?timeout_s ?cache ~budget ?inject_crash space
      ~techniques ~scenario ~requirement
  in
  Format.printf "%a@." Explore.pp report

let explore_cmd =
  let scenario =
    Arg.(
      value & opt string "HandleTMC"
      & info [ "scenario" ] ~doc:"measured scenario")
  in
  let requirement =
    Arg.(
      value & opt string "TMC" & info [ "requirement" ] ~doc:"measured requirement")
  in
  let techniques =
    Arg.(
      value
      & opt (list technique_conv)
          Ita_dse.Job.[ Mc; Sim; Symta; Rtc ]
      & info [ "techniques" ] ~doc:"subset of mc,sim,symta,rtc")
  in
  let levels name doc default =
    Arg.(value & opt (list float) default & info [ name ] ~doc)
  in
  let mmi = levels "mmi-mips" "MMI speed levels (empty: keep 22)" [] in
  let rad = levels "rad-mips" "RAD speed levels" [ 11.0; 22.0 ] in
  let nav = levels "nav-mips" "NAV speed levels (empty: keep 113)" [] in
  let bus = levels "bus-kbps" "bus baud levels" [ 48.0; 72.0; 96.0; 120.0 ] in
  let decode_on =
    Arg.(
      value & opt (list string) []
      & info [ "decode-on" ]
          ~doc:"also try mapping DecodeTMC onto these processors (e.g. NAV,RAD)")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~doc:"worker processes (default: core count)")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) (Some 600.0)
      & info [ "timeout-s" ] ~doc:"per-job wall-clock limit in seconds")
  in
  let cache_dir =
    Arg.(
      value & opt string "_dse_cache"
      & info [ "cache-dir" ] ~doc:"on-disk result cache directory")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"disable the result cache")
  in
  let mc_states =
    Arg.(
      value
      & opt (some int) None
      & info [ "mc-states" ] ~doc:"state budget per model-checking job")
  in
  let mc_seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "mc-seconds" ] ~doc:"time budget per model-checking job")
  in
  let mc_certify =
    Arg.(
      value & flag
      & info [ "mc-certify" ]
          ~doc:
            "re-validate every exact model-checking verdict with the \
             independent certificate checker before it enters the Pareto \
             front; rejected certificates demote the cell to failed")
  in
  let sim_runs =
    Arg.(value & opt int 5 & info [ "sim-runs" ] ~doc:"simulation seeds per job")
  in
  let sim_horizon =
    Arg.(
      value & opt float 30.0
      & info [ "sim-horizon-s" ] ~doc:"simulated seconds per simulation seed")
  in
  let inject_crash =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-crash" ]
          ~doc:"(fault injection) kill the worker of flat job $(docv)"
          ~docv:"N")
  in
  let mc_domains =
    Arg.(
      value
      & opt (some Knob.domains) None
      & info [ "mc-domains" ]
          ~doc:
            "worker domains inside each model-checking job (default: 1 \
             under --isolation domains, engine default otherwise)")
  in
  let isolation =
    let isolation_conv =
      let parse = function
        | "auto" -> Ok None
        | "fork" -> Ok (Some `Processes)
        | "domains" -> Ok (Some `Domains)
        | s ->
            Error (`Msg (Printf.sprintf "unknown isolation %S (auto/fork/domains)" s))
      in
      let print ppf = function
        | None -> Format.pp_print_string ppf "auto"
        | Some `Processes -> Format.pp_print_string ppf "fork"
        | Some `Domains -> Format.pp_print_string ppf "domains"
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value & opt isolation_conv None
      & info [ "isolation" ]
          ~doc:
            "job dispatch: fork (one child process per job; required for \
             --timeout-s and --inject-crash), domains (one shared domain \
             pool; --timeout-s is ignored), or auto (fork when a timeout \
             or fault injection is requested, else domains)")
  in
  (* the shared cv/pno defaults would make the exhaustive mc jobs hit
     the paper's state-explosion cells; default to the tractable
     AddressLookup/periodic-offset configuration instead *)
  let combo =
    Arg.(value & opt combo_conv R.Al_tmc & info [ "combo" ] ~doc:"cv or al")
  in
  let column =
    Arg.(
      value & opt column_conv R.Po & info [ "column" ] ~doc:"po/pno/sp/pj/bur")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "design-space exploration: sweep architecture candidates through \
          the analysis techniques in parallel, with on-disk memoization, \
          and report the feasible set and Pareto frontier")
    Term.(
      const run_explore $ combo $ column $ scenario $ requirement
      $ techniques $ mmi $ rad $ nav $ bus $ decode_on $ jobs $ timeout
      $ cache_dir $ no_cache $ mc_states $ mc_seconds $ abstraction_arg
      $ mc_domains $ mc_certify $ sim_runs $ sim_horizon
      $ inject_crash $ isolation)

(* ------------------------------------------------------------------ *)
(* lint: static analysis of the generated networks                     *)
(* ------------------------------------------------------------------ *)

module Lint = Ita_analysis.Lint
module Diag = Ita_analysis.Diagnostic

let severity_conv =
  let parse = function
    | "hint" -> Ok Diag.Hint
    | "info" -> Ok Diag.Info
    | "warning" -> Ok Diag.Warning
    | "error" -> Ok Diag.Error
    | s -> Error (`Msg (Printf.sprintf "unknown severity %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (Diag.severity_name s) in
  Arg.conv (parse, print)

let combo_name = function R.Cv_tmc -> "cv" | R.Al_tmc -> "al"

(* Lint every generated network: for each combination x environment
   column, the plain network and each Table-1 measured variant (the
   measuring automaton and observer clock included).  Findings at or
   above the threshold make the exit code nonzero. *)
let run_lint combos columns fail_on verbose json =
  let combos = if combos = [] then [ R.Cv_tmc; R.Al_tmc ] else combos in
  let columns =
    if columns = [] then [ R.Po; R.Pno; R.Sp; R.Pj; R.Bur ] else columns
  in
  let checked = ref 0 and flagged = ref 0 in
  let reports = ref [] in
  let lint_net label ?observer net =
    incr checked;
    let observed_clocks =
      match observer with
      | Some o -> [ o.Gen.obs_clock ]
      | None -> []
    in
    let observed_comps =
      match observer with
      | Some o ->
          List.map fst o.Gen.seen.Ita_mc.Query.comp_locs
          |> List.sort_uniq compare
      | None -> []
    in
    let findings = Lint.run ~observed_comps ~observed_clocks net in
    if json then begin
      if findings <> [] then reports := (label, net, findings) :: !reports
    end
    else if
      findings <> []
      && (verbose
         || Diag.compare_severity
              (Option.value ~default:Diag.Hint (Diag.worst findings))
              Diag.Info
            > 0)
    then begin
      Format.printf "-- %s --@." label;
      Lint.pp_report net Format.std_formatter findings
    end;
    List.iter
      (fun (d : Diag.t) ->
        if Diag.compare_severity d.Diag.severity fail_on >= 0 then
          incr flagged)
      findings
  in
  List.iter
    (fun combo ->
      List.iter
        (fun column ->
          let sys = R.system combo column in
          let label suffix =
            Printf.sprintf "%s/%s%s" (combo_name combo)
              (R.column_name column) suffix
          in
          lint_net (label "") (Gen.generate sys).Gen.net;
          List.iter
            (fun (row : R.row) ->
              if row.R.combo = combo then begin
                let s = Sysmodel.scenario sys row.R.scenario in
                let req = Scenario.requirement s row.R.requirement in
                let gen = Gen.generate ~measure:(row.R.scenario, req) sys in
                lint_net
                  (label
                     (Printf.sprintf " measuring %s/%s" row.R.scenario
                        row.R.requirement))
                  ?observer:gen.Gen.observer gen.Gen.net
              end)
            R.table1_rows)
        columns)
    combos;
  if json then begin
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n  \"networks\": [";
    List.iteri
      (fun i (label, net, findings) ->
        Buffer.add_string buf (if i > 0 then ",\n    " else "\n    ");
        Buffer.add_string buf (Printf.sprintf {|{"label": %S, "report": |} label);
        Buffer.add_string buf (String.trim (Lint.to_json net findings));
        Buffer.add_string buf "}")
      (List.rev !reports);
    Buffer.add_string buf (if !reports = [] then "],\n" else "\n  ],\n");
    Buffer.add_string buf
      (Printf.sprintf {|  "checked": %d, "flagged": %d, "fail_on": %S|}
         !checked !flagged
         (Diag.severity_name fail_on));
    Buffer.add_string buf "\n}\n";
    print_string (Buffer.contents buf)
  end
  else
    Format.printf "linted %d generated networks: %d finding%s at %s or above@."
      !checked !flagged
      (if !flagged = 1 then "" else "s")
      (Diag.severity_name fail_on);
  if !flagged > 0 then exit 1

let lint_cmd =
  let combos =
    Arg.(
      value
      & opt (list combo_conv) []
      & info [ "combos" ] ~doc:"subset of cv,al (default both)")
  in
  let columns =
    Arg.(
      value
      & opt (list column_conv) []
      & info [ "columns" ] ~doc:"subset of po,pno,sp,pj,bur (default all)")
  in
  let fail_on =
    Arg.(
      value
      & opt severity_conv Diag.Error
      & info [ "fail-on" ]
          ~doc:"lowest severity that makes the exit code nonzero")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"also print reports that are info-only")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"machine-readable report on stdout instead of the human format")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"run the static analyzer over every generated network")
    Term.(const run_lint $ combos $ columns $ fail_on $ verbose $ json)

(* ------------------------------------------------------------------ *)
(* ablation: scheduler policies                                        *)
(* ------------------------------------------------------------------ *)

let run_ablation column =
  Format.printf
    "Scheduler ablation (%s): K2A/A2V under processor and bus policies@."
    (R.column_name column);
  let variants =
    [
      ("preemptive cpus + preemptive bus", Resource.Priority_preemptive,
       Resource.Priority_preemptive);
      ("preemptive cpus + nonpreemptive bus", Resource.Priority_preemptive,
       Resource.Priority_nonpreemptive);
      ("nonpreemptive cpus + nonpreemptive bus",
       Resource.Priority_nonpreemptive, Resource.Priority_nonpreemptive);
    ]
  in
  List.iter
    (fun (label, cpu_policy, bus_policy) ->
      let base = R.system R.Cv_tmc column in
      let resources =
        List.map
          (fun (r : Resource.t) ->
            { r with Resource.policy = (if Resource.is_link r then bus_policy else cpu_policy) })
          base.Sysmodel.resources
      in
      let sys = { base with Sysmodel.resources } in
      let cell req =
        let r =
          Analyze.wcrt sys ~scenario:"ChangeVolume" ~requirement:req
        in
        Format.asprintf "%a" Analyze.pp_outcome r.Analyze.outcome
      in
      Format.printf "%-42s K2A=%s A2V=%s@." label (cell "K2A") (cell "A2V"))
    variants

let ablation_cmd =
  Cmd.v
    (Cmd.info "ablation-sched"
       ~doc:"compare scheduling policies (paper Figure 4 vs Figure 5 models)")
    Term.(const run_ablation $ column_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "timed-automata analysis of the radio navigation case study" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "ranav" ~doc)
          [
            wcrt_cmd;
            table1_cmd;
            table2_cmd;
            simulate_cmd;
            show_model_cmd;
            sweep_cmd;
            explore_cmd;
            lint_cmd;
            ablation_cmd;
          ]))
