(* End-to-end and per-layer benchmark of the WCRT pipeline.

   The benchmark drives the repo's public entry points from outside and
   times every call from its own code.  Three workloads, each a closed
   loop with one client (the next query starts when the previous one
   returns), on one domain:

   - table1-exact: the 12 exhaustive Table 1 cells, one Wcrt.sup each;
   - certify:      explore, emit and check a certificate for 4 po cells;
   - dse-sweep:    128 drawn candidates x {mc, sim, symta, rtc} x 2
                   requirements through Dse.Job.run.

   Usage (from the repo root):

     dune exec bench/perf/perf.exe -- --workload W --seed N \
         [--seconds S] [--trace 0|1] [--spans FILE]
         one workload in this process; prints "workload metric value
         unit" lines, then one JSON result line.  --trace 1 reports
         the per-layer metrics instead of the end-to-end ones.
     dune exec bench/perf/perf.exe -- run --seed N [--workload W]
         [--seconds S] [--trace FILE] [--out FILE]
         every workload (or W) in its own child process, one at a
         time; --trace adds a traced child per workload and writes its
         spans to FILE; --out writes all results as JSON.
     dune exec bench/perf/perf.exe -- compare A.json... -- B.json...
         per workload and end-to-end metric: medians, quartiles, pairs
         won and a verdict under the bounds in BENCHMARK.json.
     dune exec bench/perf/perf.exe -- smoke BENCHMARK.json
         tiny inputs; fails when a metric name or unit differs from
         BENCHMARK.json or an answer is wrong (the dune runtest rule).

   Every answer is checked; a wrong answer or a failed query makes the
   command exit 1. *)

open Ita_core
module R = Ita_casestudy.Radionav
module Reach = Ita_mc.Reach
module Wcrt = Ita_mc.Wcrt
module Cert = Ita_cert.Cert
module Cert_emit = Ita_mc.Cert_emit
module Job = Ita_dse.Job
module Dbm = Ita_dbm.Dbm
module Sem = Ita_ta.Semantics
module Diagnostic = Ita_analysis.Diagnostic

let now = Trace.now
let span = Trace.span
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Python's statistics.quantiles(data, n=4), the default exclusive
   method, so spreads computed here and by Python scripts agree. *)
let quartiles l =
  let a = Array.of_list (List.sort compare l) in
  let ld = Array.length a in
  if ld < 2 then
    let x = if ld = 1 then a.(0) else nan in
    (x, x, x)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median l =
  let _, m, _ = quartiles l in
  m

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* The shared host this benchmark was sized on runs the same code on the
   same inputs up to 2x slower for seconds to minutes at a time.  The
   slowdown is per CPU: a probe on the other CPU does not see it.  So a
   fixed probe kernel, owned by the benchmark and independent of the
   repo's code, runs from a timer signal every [probe_every] seconds
   while the benchmark measures, on the CPU the work runs on.  Averaged
   over a few seconds its time tracks a 15 000-state exploration's with
   slope 1.0 and a residual of 1-2 %, against 12-14 % for the raw
   exploration time.  Every time reported end to end is therefore in
   seconds of a host on which the probe takes [probe_s]: an item's
   seconds, less the probe's own time inside it, x probe_s / the mean
   probe time over the samples taken during the item and [reach]
   samples on either side. *)
let probe_s = 0.00026
let probe_every = 0.1
let reach = 5

(* 1 MB outside the OCaml heap, so that the probe neither allocates nor
   adds to the collector's work. *)
let probe_buf = Bigarray.(Array1.create int c_layout 131072)

(* A sequential write over the buffer, then random read-modify-writes
   in it: the first alone slows more than the engine, the second less. *)
let probe_kernel () =
  let n = Bigarray.Array1.dim probe_buf in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set probe_buf i i
  done;
  let x = ref 12345 in
  for _ = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (n - 1) in
    Bigarray.Array1.unsafe_set probe_buf j (Bigarray.Array1.unsafe_get probe_buf j + 1)
  done

let sample_s = Float.Array.make 16384 0.
let samples = ref 0
let probing = Float.Array.make 1 0. (* seconds spent in the probe so far *)

(* The handler runs between two instructions of the measured work, so
   it allocates nothing: with a handler that allocated, the collector's
   schedule moved from run to run and dse-sweep's peak RSS with it, by
   2 %.  Sys.time, the process's CPU time, reads the clock without
   allocating.  The first kernel run brings the buffer back into the
   caches the measured work evicted it from; timed cold, the probe
   slowed about twice as much as the engine.  Only the second run is a
   sample. *)
let probe _ =
  let c0 = Sys.time () in
  probe_kernel ();
  let c1 = Sys.time () in
  probe_kernel ();
  let c2 = Sys.time () in
  Float.Array.set probing 0 (Float.Array.get probing 0 +. (c2 -. c0));
  if !samples < Float.Array.length sample_s then begin
    Float.Array.set sample_s !samples (c2 -. c1);
    incr samples
  end

let sampling on =
  let every = if on then probe_every else 0. in
  if on then Sys.set_signal Sys.sigalrm (Sys.Signal_handle probe);
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = every; it_value = every });
  if not on then Sys.set_signal Sys.sigalrm Sys.Signal_default

(* Mean of the samples [first, last), relative to [probe_s].  A sample
   the host interrupted reads many times its neighbours, so samples
   above three times the median are left out; the host's speeds stay
   within 2x of each other, so none of them is. *)
let host_factor first last =
  let first = max 0 first and last = min !samples last in
  if last <= first then 1.
  else
    let l = List.init (last - first) (fun i -> Float.Array.get sample_s (first + i)) in
    let kept = List.filter (fun s -> s <= 3. *. median l) l in
    List.fold_left ( +. ) 0. kept /. float_of_int (List.length kept) /. probe_s

(* One measured item.  The heap is collected first, outside the timed
   window, so each item starts from a collected heap as a fresh CLI run
   would, and peak RSS does not depend on the garbage an earlier item
   left. *)
type item = { first : int; last : int; wall : float; busy : float }

let measure f =
  Gc.full_major ();
  let first = !samples and p0 = Float.Array.get probing 0 and t0 = now () in
  let x = f () in
  let wall = now () -. t0 in
  ({ first; last = !samples; wall; busy = wall -. (Float.Array.get probing 0 -. p0) }, x)

let scaled it = it.busy /. host_factor (it.first - reach) (it.last + reach)

(* ------------------------------------------------------------------ *)
(* Process                                                             *)
(* ------------------------------------------------------------------ *)

(* Measure the shipped defaults: no TAMC_* knob leaks in from the
   caller's shell, and exploration runs on one domain.  The library
   reads these variables at call time and treats an empty value as
   unset. *)
let sanitize_env () =
  Array.iter
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i when String.starts_with ~prefix:"TAMC_" kv ->
          Unix.putenv (String.sub kv 0 i) ""
      | _ -> ())
    (Unix.environment ());
  Unix.putenv "TAMC_DOMAINS" "1"

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    let l = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" l then
      Scanf.sscanf l "VmHWM: %f kB" (fun kb -> kb /. 1024.)
    else find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let header () =
  [
    ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Json.Str Sys.ocaml_version);
    ( "ocamlrunparam",
      match Sys.getenv_opt "OCAMLRUNPARAM" with
      | Some s -> Json.Str s
      | None -> Json.Null );
  ]

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

type tally = { attempted : int; failed : int; wrong : string list }

let ( ++ ) a b =
  {
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    wrong = a.wrong @ b.wrong;
  }

let none = { attempted = 0; failed = 0; wrong = [] }
let right = { none with attempted = 1 }
let failure = { none with attempted = 1; failed = 1 }
let wrong msg = { none with attempted = 1; wrong = [ msg ] }

(* A query that raises counts as failed, not as a crash of the run. *)
let guard label f =
  try f ()
  with e ->
    Printf.eprintf "%s: %s\n%!" label (Printexc.to_string e);
    failure

(* Explore's lint pre-flight: a finding that would reject a candidate
   before any job is scheduled. *)
let rejection net =
  List.find_opt
    (fun (d : Diagnostic.t) ->
      d.Diagnostic.severity = Diagnostic.Error
      || Diagnostic.compare_severity d.Diagnostic.severity Diagnostic.Warning >= 0
         && List.mem d.Diagnostic.pass [ Diagnostic.Dead_edge; Diagnostic.Sync_write_race ])
    (span "analysis.lint" (fun () -> Ita_analysis.Lint.run net))
  |> Option.map (fun d -> Format.asprintf "%a" (Diagnostic.pp net) d)

(* One measured requirement: the network Wcrt.sup is given. *)
type prepared = { label : string; gen : Gen.t; obs : Gen.observer }

let generate label sys ~scenario ~requirement =
  let req = Scenario.requirement (Sysmodel.scenario sys scenario) requirement in
  let gen = Gen.generate ~measure:(scenario, req) sys in
  { label; gen; obs = Option.get gen.Gen.observer }

let sup ?snap p =
  span "mc.wcrt" (fun () ->
      Wcrt.sup ?snap p.gen.Gen.net ~at:p.obs.Gen.seen ~clock:p.obs.Gen.obs_clock)

(* Wcrt.sup slices the network for its query and the explorer refines
   the sliced network's clock bounds with the dataflow analysis, both
   inside mc.wcrt (and inside dse.job.mc).  The traced run repeats that
   work on the same network, as its own spans, to split it out. *)
let replay_prelude p =
  let net = p.gen.Gen.net in
  let sl, snet, _ =
    span "analysis.slice" (fun () ->
        Reach.slice_query (Reach.default_slicing ())
          ~extra_clocks:[ p.obs.Gen.obs_clock ] net p.obs.Gen.seen)
  in
  ignore (span "analysis.flow" (fun () -> Ita_analysis.Flow.refine_network snet));
  Trace.count "analysis.slice.clocks_removed"
    (float_of_int
       (Array.length net.Ita_ta.Network.clock_names
       - Array.length snet.Ita_ta.Network.clock_names));
  Trace.count "analysis.slice.components_removed"
    (float_of_int (List.length sl.Ita_analysis.Slice.removed_comps))

let stats_of = function
  | Wcrt.Sup { stats; _ }
  | Wcrt.Goal_unreachable stats
  | Wcrt.Sup_budget_exhausted { stats; _ }
  | Wcrt.Sup_unbounded { stats; _ } ->
      stats

let count_sup (s : Reach.stats) =
  Trace.count "mc.wcrt.explored" (float_of_int s.Reach.explored);
  Trace.count "mc.wcrt.stored" (float_of_int s.Reach.stored);
  Trace.count "mc.wcrt.transitions" (float_of_int s.Reach.transitions)

(* A Table 1 cell with its pinned exact WCRT in microseconds.  [replay]
   marks the cells whose passed lists the traced run replays. *)
type cell = {
  combo : R.combo;
  column : R.column;
  scenario : string;
  requirement : string;
  expect : int;
  replay : bool;
}

let cell ?(replay = false) combo column scenario requirement expect =
  { combo; column; scenario; requirement; expect; replay }

let cell_label c =
  Printf.sprintf "%s/%s/%s [%s]" (R.combo_name c.combo) c.scenario
    c.requirement (R.column_name c.column)

let tmc_cv = cell R.Cv_tmc R.Po "HandleTMC" "TMC" 373_859
let tmc_al column v = cell R.Al_tmc column "HandleTMC" "TMC" v
let k2a = cell ~replay:true R.Cv_tmc R.Po "ChangeVolume" "K2A" 32_829
let a2v = cell ~replay:true R.Cv_tmc R.Po "ChangeVolume" "A2V" 35_919

(* AddressLookup's WCRT is 79.075 ms in every column *)
let al ?replay column = cell ?replay R.Al_tmc column "AddressLookup" "E2E" 79_075

let wcrt_query c p () =
  guard p.label (fun () ->
      match sup p with
      | Wcrt.Sup { value; stats; _ } ->
          count_sup stats;
          if value = c.expect then right
          else wrong (Printf.sprintf "%s: WCRT %d, expected %d" p.label value c.expect)
      | r ->
          count_sup (stats_of r);
          failure)

let certify_query c p () =
  guard p.label (fun () ->
      let snap = ref None in
      match sup ~snap:(fun s -> snap := Some s) p with
      | Wcrt.Sup { value; kind; stats } -> (
          count_sup stats;
          let snapshot = Option.get !snap in
          let kind =
            match kind with
            | Wcrt.Attained -> Cert.Attained
            | Wcrt.Approached -> Cert.Approached
          in
          let qc =
            span "mc.cert_emit" (fun () ->
                Cert_emit.of_snapshot ~index:0
                  ~verdict:(Cert.Sup { clock = p.obs.Gen.obs_clock; value; kind })
                  snapshot)
          in
          let zones l = float_of_int (List.fold_left (fun a z -> a + List.length z) 0 l) in
          Trace.count "mc.cert_emit.entries" (float_of_int (List.length qc.Cert.entries));
          Trace.count "mc.cert_emit.zones_in" (zones (List.map snd snapshot.Reach.snap_passed));
          Trace.count "mc.cert_emit.zones_out"
            (zones (List.map (fun e -> e.Cert.zones) qc.Cert.entries));
          match
            span "analysis.cert" (fun () ->
                Cert.check p.gen.Gen.net ~goal:(Cert_emit.goal_of_query p.obs.Gen.seen) qc)
          with
          | Ok st ->
              Trace.count "analysis.cert.checked_states" (float_of_int st.Cert.checked_states);
              Trace.count "analysis.cert.checked_zones" (float_of_int st.Cert.checked_zones);
              if value = c.expect then right
              else wrong (Printf.sprintf "%s: WCRT %d, expected %d" p.label value c.expect)
          | Error f ->
              wrong
                (Printf.sprintf "%s: certificate rejected [%s] %s" p.label
                   (Cert.obligation_name f.Cert.obligation) f.Cert.message))
      | r ->
          count_sup (stats_of r);
          failure)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type instance = {
  queries : (unit -> tally) list;
  inputs : unit -> prepared list;
      (** the networks the queries hand to Wcrt.sup, for the traced
          run's slicing and flow replay; built on demand *)
  to_replay : unit -> prepared list;
      (** cells whose passed lists the traced run replays, chosen after
          the pass *)
}

type workload = {
  name : string;
  build : seed:int -> smoke:bool -> unit -> instance;
      (** the seed fixes the inputs; the returned thunk is the set-up
          (model and candidate construction) that setup_s times *)
}

(* Set-up builds each cell's model and measured network and lints it,
   as a user does before checking; a rejected network fails its query.
   Cells run in the order given, whatever the seed: the heap keeps the
   pools a query freed, so the order alone moved table1-exact's peak RSS
   between 209 and 267 MB. *)
let cells_workload name ~cells ~smoke_cells query =
  {
    name;
    build =
      (fun ~seed:_ ~smoke ->
        let cells = if smoke then smoke_cells else cells in
        fun () ->
          let prepared =
            List.map
              (fun c ->
                let sys = span "casestudy.system" (fun () -> R.system c.combo c.column) in
                let p =
                  span "core.gen" (fun () ->
                      generate (cell_label c) sys ~scenario:c.scenario ~requirement:c.requirement)
                in
                (c, p, rejection p.gen.Gen.net))
              cells
          in
          {
            queries =
              List.map
                (fun (c, p, rejected) ->
                  match rejected with
                  | None -> query c p
                  | Some d ->
                      fun () ->
                        Printf.eprintf "%s: rejected by lint: %s\n%!" p.label d;
                        failure)
                prepared;
            inputs = (fun () -> List.map (fun (_, p, _) -> p) prepared);
            to_replay =
              (fun () ->
                List.filter_map (fun (c, p, _) -> if c.replay then Some p else None) prepared);
          });
  }

(* The paper's artefact: long antichains on K2A and A2V (105 zones per
   discrete state, 550 subset probes before a successor finds its
   cover). *)
let table1_exact =
  cells_workload "table1-exact"
    ~smoke_cells:[ tmc_al R.Po 172_106; al ~replay:true R.Po ]
    ~cells:
      [
        tmc_cv; tmc_al R.Po 172_106; k2a; a2v; al R.Po;
        tmc_al R.Pno 239_081; tmc_al R.Sp 239_081; tmc_al R.Pj 329_990;
        al R.Pno; al R.Sp; al R.Pj; al R.Bur;
      ]
    wcrt_query

(* The only workload where certificate emission and checking (and its
   Dbm.le_lu coverage search) do most of the work. *)
let certify =
  cells_workload "certify" ~smoke_cells:[ al ~replay:true R.Po ]
    ~cells:[ k2a; tmc_cv; tmc_al R.Po 172_106; al R.Po ]
    certify_query

(* The paper's Section 4 design question as a stream of small jobs.
   The grid is RAD x NAV x MMI MIPS x bus kbit/s x column over the AL
   combination.  The column sets a candidate's cost (pno jobs cost
   about 2.3x po ones) while the speeds barely move it, so the draw is
   stratified by column: a free draw of 128 would move wall_s by about
   5 % from seed to seed. *)
let dse_speeds =
  List.concat_map
    (fun rad ->
      List.concat_map
        (fun nav ->
          List.concat_map
            (fun mmi ->
              List.map (fun bus -> (rad, nav, mmi, bus)) [ 48.; 60.; 72.; 96.; 120.; 144. ])
            [ 22.; 33. ])
        [ 80.; 113.; 150. ])
    [ 11.; 16.5; 22.; 33. ]

let dse_columns = [| R.Po; R.Pno; R.Sp |]
let dse_requirements = [ ("HandleTMC", "TMC"); ("AddressLookup", "E2E") ]

(* 43 po, 43 pno and 42 sp candidates, each column's speeds drawn
   without replacement, in a seeded order *)
let draw_candidates rng n =
  let pools = Array.map (fun _ -> Array.of_list (shuffle rng dse_speeds)) dse_columns in
  shuffle rng (List.init n (fun i -> (dse_columns.(i mod 3), pools.(i mod 3).(i / 3))))

(* One row of the sweep: the four techniques on one requirement of one
   candidate.  Simulation witnesses a run of the same model and RTC is
   a sound upper bound, so sim <= mc <= rtc must hold. *)
type row = { row_label : string; sys : Sysmodel.t; scenario : string; requirement : string }

let row_input r = generate r.row_label r.sys ~scenario:r.scenario ~requirement:r.requirement

let dse_row largest r =
  let jobs =
    List.map
      (fun technique ->
        ( technique,
          span ("dse.job." ^ Job.technique_name technique) (fun () ->
              try
                Job.run
                  {
                    Job.sys = r.sys;
                    technique;
                    scenario = r.scenario;
                    requirement = r.requirement;
                    budget = Job.default_budget;
                  }
              with e ->
                { Job.measure = Job.Failed (Printexc.to_string e); elapsed = 0.; explored = 0 }) ))
      Job.all_techniques
  in
  let measure t = (List.assoc t jobs).Job.measure in
  let failed =
    List.filter
      (fun (t, (res : Job.result)) ->
        match res.Job.measure with
        | Job.Exact _ | Job.Lower _ | Job.Upper _ -> false
        | m ->
            Printf.eprintf "%s %s: %s\n%!" r.row_label (Job.technique_name t)
              (Format.asprintf "%a" Job.pp_measure m);
            true)
      jobs
  in
  let wrong =
    match (measure Job.Sim, measure Job.Mc, measure Job.Rtc) with
    | Job.Lower sim, Job.Exact mc, Job.Upper rtc when not (sim <= mc && mc <= rtc) ->
        [ Printf.sprintf "%s: sim %d <= mc %d <= rtc %d violated" r.row_label sim mc rtc ]
    | _ -> []
  in
  let explored = (List.assoc Job.Mc jobs).Job.explored in
  if explored > fst !largest then largest := (explored, Some r);
  { attempted = List.length jobs; failed = List.length failed; wrong }

(* Set-up builds each candidate's model, generates its network once and
   lints it, as Explore's pre-flight does; a rejected candidate fails
   its eight jobs.  A query evaluates one candidate: both rows, eight
   jobs, each generating its own network inside Job.run. *)
let dse_sweep =
  {
    name = "dse-sweep";
    build =
      (fun ~seed ~smoke ->
        let candidates =
          draw_candidates (Random.State.make [| seed |]) (if smoke then 1 else 128)
        in
        fun () ->
          (* the traced run replays the row with the largest mc
             exploration *)
          let largest = ref (0, None) in
          let candidates =
            List.map
              (fun (column, (rad, nav, mmi, bus)) ->
                let label =
                  Printf.sprintf "RAD=%g NAV=%g MMI=%g BUS=%g %s" rad nav mmi bus
                    (R.column_name column)
                in
                let sys =
                  span "casestudy.system" (fun () ->
                      R.system_with ~rad_mips:rad ~nav_mips:nav ~mmi_mips:mmi ~bus_kbps:bus
                        R.Al_tmc column)
                in
                let gen = span "core.gen" (fun () -> Gen.generate sys) in
                let rows =
                  List.map
                    (fun (scenario, requirement) ->
                      { row_label = label ^ " " ^ scenario; sys; scenario; requirement })
                    dse_requirements
                in
                (label, rows, rejection gen.Gen.net))
              candidates
          in
          let rows = List.concat_map (fun (_, rows, _) -> rows) candidates in
          {
            queries =
              List.map
                (fun (label, rows, rejected) () ->
                  match rejected with
                  | None -> List.fold_left (fun t r -> t ++ dse_row largest r) none rows
                  | Some d ->
                      Printf.eprintf "%s: rejected by lint: %s\n%!" label d;
                      let jobs = List.length rows * List.length Job.all_techniques in
                      { none with attempted = jobs; failed = jobs })
                candidates;
            inputs = (fun () -> List.map row_input rows);
            to_replay = (fun () -> Option.to_list (Option.map row_input (snd !largest)));
          });
  }

let workloads = [ table1_exact; certify; dse_sweep ]

(* ------------------------------------------------------------------ *)
(* Kernel replay over real passed lists                                *)
(* ------------------------------------------------------------------ *)

module States = Hashtbl.Make (struct
  type t = Sem.state

  let equal = Sem.state_equal
  let hash = Sem.state_hash
end)

type kernels = {
  mutable states : int;
  mutable zones : int;
  mutable max_antichain : int;
  mutable succ_s : float;
  mutable succs : int;
  mutable lu_s : float;
  mutable subset_s : float;
  mutable subset_probes : int;
  mutable hits : int;
  mutable le_lu_s : float;
  mutable le_lu_probes : int;
  mutable seq_s : float;
  mutable seq_explored : int;
  mutable par_s : float;
  mutable par_explored : int;
  mutable steals : int;
}

(* Call the engine's kernels on every stored configuration of a
   completed exploration: Semantics.successors, then Semantics.lu_bounds
   per successor, then a scan of the successor's target antichain with
   Dbm.subset and with Dbm.le_lu, stopping at the first zone that covers
   it, as the passed list does.  Each kernel is timed as one block. *)
let replay_kernels k (snap : Reach.snapshot) =
  let net = snap.Reach.snap_net in
  let table = States.create 1024 in
  List.iter
    (fun (st, zs) ->
      States.replace table st (Array.of_list zs);
      k.states <- k.states + 1;
      k.zones <- k.zones + List.length zs;
      k.max_antichain <- max k.max_antichain (List.length zs))
    snap.Reach.snap_passed;
  let configs =
    List.concat_map
      (fun (state, zs) -> List.map (fun zone -> { Sem.state; zone }) zs)
      snap.Reach.snap_passed
  in
  let t0 = now () in
  let succs = List.concat_map (fun c -> List.map snd (Sem.successors net c)) configs in
  let t1 = now () in
  let lus = List.map (fun (c : Sem.config) -> Sem.lu_bounds net c.Sem.state) succs in
  let t2 = now () in
  let targets =
    List.map
      (fun (c : Sem.config) ->
        (c.Sem.zone, Option.value ~default:[||] (States.find_opt table c.Sem.state)))
      succs
  in
  let scan covers (z, antichain) =
    let rec go i =
      if i >= Array.length antichain then (i, false)
      else if covers z antichain.(i) then (i + 1, true)
      else go (i + 1)
    in
    go 0
  in
  let t3 = now () in
  List.iter
    (fun t ->
      let probes, hit = scan Dbm.subset t in
      k.subset_probes <- k.subset_probes + probes;
      if hit then k.hits <- k.hits + 1)
    targets;
  let t4 = now () in
  List.iter2
    (fun t (l, u) -> k.le_lu_probes <- k.le_lu_probes + fst (scan (Dbm.le_lu l u) t))
    targets lus;
  let t5 = now () in
  k.succ_s <- k.succ_s +. (t1 -. t0);
  k.succs <- k.succs + List.length succs;
  k.lu_s <- k.lu_s +. (t2 -. t1);
  k.subset_s <- k.subset_s +. (t4 -. t3);
  k.le_lu_s <- k.le_lu_s +. (t5 -. t4)

(* Snapshot the cell at one domain, replay its kernels, then rerun it
   at min(2, nproc) domains for the par.* metrics. *)
let replay_cell k p =
  let snap = ref None in
  let seq = stats_of (sup ~snap:(fun s -> snap := Some s) p) in
  Option.iter (replay_kernels k) !snap;
  let domains = min 2 (Domain.recommended_domain_count ()) in
  Unix.putenv "TAMC_DOMAINS" (string_of_int domains);
  let par =
    stats_of (Fun.protect ~finally:(fun () -> Unix.putenv "TAMC_DOMAINS" "1") (fun () -> sup p))
  in
  k.seq_s <- k.seq_s +. seq.Reach.elapsed;
  k.seq_explored <- k.seq_explored + seq.Reach.explored;
  k.par_s <- k.par_s +. par.Reach.elapsed;
  k.par_explored <- k.par_explored + par.Reach.explored;
  k.steals <- k.steals + par.Reach.steals

(* ------------------------------------------------------------------ *)
(* One workload run                                                    *)
(* ------------------------------------------------------------------ *)

let layers =
  [
    "casestudy.system"; "core.gen"; "analysis.lint"; "analysis.slice";
    "analysis.flow"; "mc.wcrt"; "mc.cert_emit"; "analysis.cert";
    "dse.job.mc"; "dse.job.sim"; "dse.job.symta"; "dse.job.rtc";
  ]

(* setup_s is the median of at least [setup_reps] set-ups spanning at
   least [setup_min_s], so that a millisecond-scale set-up is neither one
   noisy sample nor scaled by the few probe samples of a short phase.
   dse-sweep's 41 set-ups take longer than that on their own, so its
   count stays fixed: a count that followed the host's speed gave each
   run its own heap history, and its small peak RSS varied with it. *)
let setup_reps = 41
let setup_min_s = 2.0

(* One pass of the closed loop: every query once.  Returns the measured
   queries and the tally. *)
let run_pass inst =
  let _, items, tally =
    List.fold_left
      (fun (i, items, tally) q ->
        Trace.query := i;
        let it, t =
          measure (fun () ->
              let collections = (Gc.quick_stat ()).Gc.major_collections in
              let t = span "query" q in
              Trace.count "gc.major_collections"
                (float_of_int ((Gc.quick_stat ()).Gc.major_collections - collections));
              t)
        in
        (i + 1, it :: items, tally ++ t))
      (0, [], none) inst.queries
  in
  Trace.query := -1;
  (items, tally)

let sum f items = List.fold_left (fun a it -> a +. f it) 0. items

type result = { metrics : (string * float * string) list; tally : tally }

let per_layer ~setup_s ~pass_s ~span_cost ~top_heap_words ~host_factor k =
  let selfs = Trace.self_times () in
  let traced = setup_s +. pass_s in
  let layer name =
    let self, calls, minor, major =
      List.fold_left
        (fun ((self, calls, minor, major) as acc) ((s : Trace.span), t) ->
          if s.Trace.name = name then
            (self +. t, calls +. 1., minor +. s.Trace.minor_words, major +. s.Trace.major_words)
          else acc)
        (0., 0., 0., 0.) selfs
    in
    [
      (name ^ ".share", ratio self traced, "fraction");
      (name ^ ".calls", calls, "count");
      (name ^ ".minor_mw", minor /. 1e6, "Mword");
      (name ^ ".major_mw", major /. 1e6, "Mword");
    ]
  in
  let sum keep =
    List.fold_left (fun a ((s : Trace.span), t) -> if keep s then a +. t else a) 0. selfs
  in
  let in_pass = sum (fun s -> s.Trace.query >= 0 && s.Trace.name <> "query") in
  let wcrt_s = sum (fun s -> s.Trace.name = "mc.wcrt") in
  let pass_spans = List.length (List.filter (fun ((s : Trace.span), _) -> s.Trace.query >= 0) selfs) in
  let c = Trace.counter and f = float_of_int in
  let ns time calls = ratio (time *. 1e9) (f calls) in
  List.concat_map layer layers
  @ [
      ("analysis.slice.clocks_removed", c "analysis.slice.clocks_removed", "count");
      ("analysis.slice.components_removed", c "analysis.slice.components_removed", "count");
      ("mc.wcrt.explored", c "mc.wcrt.explored", "count");
      ("mc.wcrt.stored", c "mc.wcrt.stored", "count");
      ("mc.wcrt.transitions", c "mc.wcrt.transitions", "count");
      ("mc.wcrt.useful_ratio", ratio (c "mc.wcrt.stored") (c "mc.wcrt.explored"), "ratio");
      ("mc.wcrt.stored_per_s", ratio (c "mc.wcrt.stored") wcrt_s, "1/s");
      ("mc.cert_emit.entries", c "mc.cert_emit.entries", "count");
      ("mc.cert_emit.zones_in", c "mc.cert_emit.zones_in", "count");
      ("mc.cert_emit.zones_out", c "mc.cert_emit.zones_out", "count");
      ("analysis.cert.checked_states", c "analysis.cert.checked_states", "count");
      ("analysis.cert.checked_zones", c "analysis.cert.checked_zones", "count");
      ( "gc.top_heap_mb",
        f top_heap_words *. f (Sys.word_size / 8) /. 1048576.,
        "MB" );
      ("gc.major_collections", c "gc.major_collections", "count");
      ("ta.semantics.successors.ns", ns k.succ_s k.zones, "ns");
      ("ta.semantics.successors.fanout", ratio (f k.succs) (f k.zones), "ratio");
      ("ta.semantics.lu_bounds.ns", ns k.lu_s k.succs, "ns");
      ("dbm.subset.ns", ns k.subset_s k.subset_probes, "ns");
      ("dbm.le_lu.ns", ns k.le_lu_s k.le_lu_probes, "ns");
      ("passed.antichain_mean", ratio (f k.zones) (f k.states), "ratio");
      ("passed.antichain_max", f k.max_antichain, "count");
      ("subsume.probes_per_succ", ratio (f k.subset_probes) (f k.succs), "ratio");
      ("subsume.hit_ratio", ratio (f k.hits) (f k.succs), "ratio");
      ("par.useful_ratio", ratio (f k.seq_explored) (f k.par_explored), "ratio");
      ("par.steals", f k.steals, "count");
      ("par.wall_ratio", ratio k.par_s k.seq_s, "ratio");
      ("host.factor", host_factor, "ratio");
      ("trace.traced_s", traced, "s");
      ("trace.overhead_frac", ratio (f pass_spans *. span_cost) pass_s, "fraction");
      ("trace.coverage", ratio in_pass pass_s, "fraction");
    ]

(* The end-to-end run sets up repeatedly, then runs timed passes while
   another one is expected to fit in [seconds], at least one.  The
   traced run is separate: one traced set-up and pass, then the slicing
   and flow replay, then the kernel replay and the parallel rerun of the
   workload's replay cells.  The top heap is read before the kernel
   replay, which allocates far more. *)
let run_workload w ~seed ~seconds ~smoke ~traced ~spans =
  sanitize_env ();
  Trace.reset ();
  let setup = w.build ~seed ~smoke in
  (* touch the probe's buffer before the first sample *)
  probe_kernel ();
  sampling true;
  if not traced then begin
    let start = now () in
    let rec set_up n items =
      let it, inst = measure setup in
      let items = it :: items in
      if smoke || (n >= setup_reps && now () -. start >= setup_min_s) then (items, inst)
      else set_up (n + 1) items
    in
    let setup_items, inst = set_up 1 [] in
    let timed = now () in
    let rec loop passes tally =
      let items, t = run_pass inst in
      let passes = items :: passes and tally = tally ++ t in
      if now () -. timed +. median (List.map (sum (fun it -> it.busy)) passes) <= seconds then
        loop passes tally
      else (passes, tally)
    in
    let passes, tally = loop [] none in
    sampling false;
    let unscaled = median (List.map (sum (fun it -> it.busy)) passes) in
    if not smoke then
      Printf.printf "# %d passes, %.4f s unscaled, host factor %.3f\n" (List.length passes)
        unscaled (host_factor 0 !samples);
    {
      metrics =
        [
          ("wall_s", median (List.map (sum scaled) passes), "s");
          ("setup_s", median (List.map scaled setup_items), "s");
          ("peak_rss_mb", peak_rss_mb (), "MB");
        ];
      tally;
    }
  end
  else begin
    Trace.on := true;
    let setup_it, inst = measure setup in
    let items, tally = run_pass inst in
    let setup_s = setup_it.wall and pass_s = sum (fun it -> it.wall) items in
    sampling false;
    let host_factor = host_factor 0 !samples in
    let span_cost = Trace.span_cost () in
    List.iter replay_prelude (inst.inputs ());
    Trace.on := false;
    let k =
      {
        states = 0; zones = 0; max_antichain = 0; succ_s = 0.; succs = 0;
        lu_s = 0.; subset_s = 0.; subset_probes = 0; hits = 0; le_lu_s = 0.;
        le_lu_probes = 0; seq_s = 0.; seq_explored = 0; par_s = 0.;
        par_explored = 0; steals = 0;
      }
    in
    let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    List.iter (replay_cell k) (inst.to_replay ());
    (* the passed list is closed under successors, so every successor
       of a stored zone is covered by one *)
    let tally =
      if k.hits = k.succs then tally
      else
        tally
        ++ wrong
             (Printf.sprintf "%s: %d of %d successors of the passed list are not covered" w.name
                (k.succs - k.hits) k.succs)
    in
    let metrics =
      per_layer ~setup_s ~pass_s ~span_cost ~top_heap_words ~host_factor k
    in
    Option.iter (fun file -> Trace.write ~workload:w.name file) spans;
    { metrics; tally }
  end

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool (r.tally.wrong = []));
      ("attempted", Json.Num (float_of_int r.tally.attempted));
      ("failed", Json.Num (float_of_int r.tally.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
             r.metrics) );
    ]

let ok r = r.tally.wrong = [] && r.tally.failed = 0

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      die "unknown workload %S (%s)" name
        (String.concat ", " (List.map (fun w -> w.name) workloads))

(* --key value options; anything else is an error *)
let options args =
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | [] -> acc
    | a :: _ -> die "unexpected argument %S" a
  in
  let opts = go [] args in
  let get k = List.assoc_opt k opts in
  let get_int k d =
    match get k with
    | None -> d
    | Some v -> (match int_of_string_opt v with Some i -> i | None -> die "%s: not an integer" k)
  in
  let get_float k d =
    match get k with
    | None -> d
    | Some v -> (match float_of_string_opt v with Some x -> x | None -> die "%s: not a number" k)
  in
  (get, get_int, get_float)

let default_seconds = 20.

let worker args =
  let get, get_int, get_float = options args in
  let w =
    match get "--workload" with Some n -> find_workload n | None -> die "--workload is required"
  in
  let traced =
    match get "--trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some v -> die "--trace takes 0 or 1, not %S" v
  in
  let r =
    run_workload w ~seed:(get_int "--seed" 1) ~seconds:(get_float "--seconds" default_seconds)
      ~smoke:false ~traced ~spans:(get "--spans")
  in
  Printf.printf "# %s\n" (Json.to_string (Json.Obj (("workload", Json.Str w.name) :: header ())));
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %.6g %s\n" w.name n v u) r.metrics;
  List.iter (fun m -> Printf.printf "%s WRONG %s\n" w.name m) r.tally.wrong;
  print_endline (Json.to_string (result_json r));
  exit (if ok r then 0 else 1)

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Json.Str line
    | _ -> Json.Null
  with Unix.Unix_error _ | Sys_error _ -> Json.Null

(* Run one workload in a child process, passing its lines through and
   returning its exit status and JSON result line. *)
let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec read last =
    match input_line ic with
    | line ->
        Option.iter print_endline last;
        read (Some line)
    | exception End_of_file -> last
  in
  let last = read None in
  let status = Unix.close_process_in ic in
  let result = Option.bind last (fun l -> try Some (Json.parse l) with Json.Error _ -> None) in
  (status = Unix.WEXITED 0 && result <> None, Option.value ~default:Json.Null result)

let run_all args =
  let get, get_int, get_float = options args in
  let seed = get_int "--seed" 1 and seconds = get_float "--seconds" default_seconds in
  let chosen =
    match get "--workload" with Some n -> [ find_workload n ] | None -> workloads
  in
  let spans = get "--trace" in
  Option.iter (fun f -> close_out (open_out f)) spans;
  let head =
    header ()
    @ [
        ("git_commit", git_commit ());
        ("seed", Json.Num (float_of_int seed));
        ("seconds", Json.Num seconds);
      ]
  in
  Printf.printf "# %s\n%!" (Json.to_string (Json.Obj head));
  let common w = [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds"; string_of_float seconds ] in
  let results =
    List.map
      (fun w ->
        let ok1, e2e = child (common w @ [ "--trace"; "0" ]) in
        let ok2, layer =
          match spans with
          | None -> (true, Json.Null)
          | Some f -> child (common w @ [ "--trace"; "1"; "--spans"; f ])
        in
        (ok1 && ok2, (w.name, Json.Obj [ ("end_to_end", e2e); ("per_layer", layer) ])))
      chosen
  in
  Option.iter
    (fun out ->
      let oc = open_out out in
      output_string oc
        (Json.to_string
           (Json.Obj [ ("header", Json.Obj head); ("workloads", Json.Obj (List.map snd results)) ]));
      output_char oc '\n';
      close_out oc)
    (get "--out");
  exit (if List.for_all fst results then 0 else 1)

let read_file f = In_channel.with_open_bin f In_channel.input_all

(* (name, unit, better, bound) of the metrics BENCHMARK.json declares under
   [key]; per-layer metrics have no bound *)
let declared bench key =
  List.map
    (fun m ->
      ( Json.str (Json.get "name" m),
        Json.str (Json.get "unit" m),
        Option.map Json.str (Json.member "better" m),
        Option.map Json.num (Json.member "bound" m) ))
    (Json.list (Json.get key bench))

(* A gain needs 9/10 of the pairs and a median shift beyond A's own
   quartile spread.  A loss is a median shift beyond both the bound and
   the wider side's spread.  Otherwise a metric whose spread exceeds its
   bound is unresolved rather than unchanged, unless every B run beats
   every A run. *)
let compare_runs args =
  let rec split a = function
    | "--" :: b -> (List.rev a, b)
    | x :: r -> split (x :: a) r
    | [] -> die "usage: compare A.json... -- B.json..."
  in
  let fa, fb = split [] args in
  if fa = [] || fb = [] then die "usage: compare A.json... -- B.json...";
  let load f = try Json.parse (read_file f) with Json.Error e | Sys_error e -> die "%s: %s" f e in
  let a = List.map load fa and b = List.map load fb in
  let bench = Json.parse (read_file "BENCHMARK.json") in
  let value run w m =
    try
      Some
        (Json.num
           (Json.get "value"
              (Json.get m (Json.get "metrics" (Json.get "end_to_end" (Json.get w (Json.get "workloads" run)))))))
    with Json.Error _ -> None
  in
  let worse_verdicts = ref 0 in
  Printf.printf "%-13s %-12s %28s %28s %7s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "B wins" "verdict";
  List.iter
    (fun w ->
      let w = Json.str (Json.get "name" w) in
      List.iter
        (fun (m, unit, better, bound) ->
          let va = List.filter_map (fun r -> value r w m) a
          and vb = List.filter_map (fun r -> value r w m) b in
          if va <> [] && vb <> [] then begin
            let lower = better <> Some "higher" and bound = Option.value ~default:0. bound in
            let gain x y = if lower then x -. y else y -. x in
            let qa1, ma, qa3 = quartiles va and qb1, mb, qb3 = quartiles vb in
            let rec zip xs ys =
              match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []
            in
            let pairs = zip va vb in
            let wins = List.length (List.filter (fun (x, y) -> gain x y > 0.) pairs) in
            let spread = Float.max (ratio (qa3 -. qa1) ma) (ratio (qb3 -. qb1) mb) in
            let all_better = List.for_all (fun y -> List.for_all (fun x -> gain x y > 0.) va) vb in
            let verdict =
              if 10 * wins >= 9 * List.length pairs && gain ma mb > qa3 -. qa1 && gain ma mb > 0.
              then "better"
              else if ratio (-.gain ma mb) ma > Float.max bound spread then (
                incr worse_verdicts;
                "worse")
              else if spread > bound && not all_better then "unresolved"
              else "same"
            in
            Printf.printf "%-13s %-12s %12.6g [%.4g, %.4g] %12.6g [%.4g, %.4g] %3d/%-3d  %s (%s, bound %g, spread %.3f)\n"
              w m ma qa1 qa3 mb qb1 qb3 wins (List.length pairs) verdict unit bound spread
          end)
        (declared bench "end_to_end"))
    (Json.list (Json.get "workloads" bench));
  exit (if !worse_verdicts = 0 then 0 else 1)

(* Tiny inputs through every workload, untraced and traced: the
   emitted names and units must be exactly the ones BENCHMARK.json
   declares, and every answer must be right. *)
let smoke args =
  let file = match args with [ f ] -> f | _ -> die "usage: smoke BENCHMARK.json" in
  let bench = Json.parse (read_file file) in
  let names key = List.sort compare (List.map (fun (n, u, _, _) -> (n, u)) (declared bench key)) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let declared_workloads =
    List.sort compare (List.map (fun w -> Json.str (Json.get "name" w)) (Json.list (Json.get "workloads" bench)))
  in
  if declared_workloads <> List.sort compare (List.map (fun w -> w.name) workloads) then
    problem "workload names differ from %s" file;
  List.iter
    (fun w ->
      List.iter
        (fun (traced, key) ->
          let r = run_workload w ~seed:1 ~seconds:0. ~smoke:true ~traced ~spans:None in
          let emitted = List.sort compare (List.map (fun (n, _, u) -> (n, u)) r.metrics) in
          if emitted <> names key then problem "%s: emitted %s differ from %s" w.name key file;
          List.iter (fun m -> problem "%s" m) r.tally.wrong;
          if r.tally.failed > 0 then problem "%s: %d queries failed" w.name r.tally.failed;
          Printf.printf "smoke %-12s %-10s %d attempted\n%!" w.name key r.tally.attempted)
        [ (false, "end_to_end"); (true, "per_layer") ])
    workloads;
  List.iter (fun p -> Printf.eprintf "smoke: %s\n" p) (List.rev !problems);
  exit (if !problems = [] then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_all args
  | "compare" :: args -> compare_runs args
  | "smoke" :: args -> smoke args
  | args -> worker args
