(** The sweep driver: enumerate a {!Space.t}, run every (candidate,
    technique) job — memoized through {!Cache}, parallel and
    crash-isolated through {!Pool} — and report a summary table plus
    the Pareto frontier over (WCRT, hardware cost proxy).

    This is the paper's Section 4 workflow as one call: "does the
    product work, given a set of hard resource restrictions?", asked
    of every architecture alternative at once. *)

type status =
  | Done of Job.result
  | Crashed of string
  | Timed_out of float
  | Rejected of string
      (** the candidate's generated network failed the static analyzer
          with an error-severity finding (the message), so no analysis
          job was spent on it *)

type cell = { technique : Job.technique; status : status; cached : bool }
type row = { candidate : Space.candidate; cells : cell list }

type report = {
  space_name : string;
  scenario : string;
  requirement : string;
  deadline_us : int option;  (** the requirement's declared budget *)
  techniques : Job.technique list;
  rows : row list;  (** candidate enumeration order *)
  cache_hits : int;
  cache_misses : int;  (** lookups that missed (0 without a cache) *)
  executed : int;  (** jobs actually run in workers *)
  failed : int;  (** crashed + timed out *)
  rejected : int;  (** candidates screened out by the lint pre-flight *)
  workers : int;
  wall_s : float;
}

val run :
  ?jobs:int ->
  ?timeout_s:float ->
  ?cache:Cache.t ->
  ?budget:Job.budget ->
  ?inject_crash:int ->
  Space.t ->
  techniques:Job.technique list ->
  scenario:string ->
  requirement:string ->
  report
(** Every job runs through {!Pool.map}: [jobs] forked workers (default
    {!Pool.default_jobs}), each job in its own child under the per-job
    wall-clock limit [timeout_s] (default: none).  A job's model
    checker runs {!Ita_mc.Reach.default_domains} worker domains, read
    from the [TAMC_DOMAINS] the child inherits.

    [inject_crash i] makes flat job [i] (candidate-major over
    techniques) kill its own worker — the fault-injection hook that
    demonstrates crash isolation end to end; a cached job ignores it.
    @raise Not_found on unknown scenario/requirement names.
    @raise Invalid_argument on an empty technique list. *)

val row_wcrt_us : row -> int option
(** The row's best available WCRT figure: an [Exact] value if any
    technique produced one, else the tightest [Upper] bound, else the
    largest [Lower] bound. *)

val feasibility :
  deadline_us:int option -> row -> [ `Feasible | `Infeasible | `Unknown ]
(** Sound verdict against the deadline, by
    {!Ita_core.Analyze.deadline_verdict} over the row's figures (its
    exact value, tightest upper and largest lower bound): [`Feasible]
    needs an exact value or upper bound below the deadline,
    [`Infeasible] an exact value or lower bound at or beyond it, or an
    [Unbounded] cell, which {!Ita_core.Analyze.outcome_verdict} also
    reads as a violation.  An [Unbounded] cell gives no figure to
    {!row_wcrt_us} or {!frontier}. *)

val frontier : report -> row list
(** Pareto-optimal rows over (WCRT, {!Space.cost}), restricted to
    rows with a usable WCRT figure. *)

val pp : Format.formatter -> report -> unit
(** Summary table (cached cells marked [*]), throughput line and
    Pareto frontier. *)
