(** Forward symbolic reachability: the model checker's engine.

    Explores the Extra+LU zone graph ({!Semantics}) with a passed list
    keyed on the discrete state (antichains of zones under inclusion,
    each zone kept as its row over the state's live clocks, see
    {!Ita_dbm.Dbm.to_row}) and one waiting deque per worker domain,
    each taken from in the search order.  [Bfs] gives shortest
    counterexamples at one domain;
    [Dfs] and [Random_dfs] are the paper's "structured testing" modes
    ("df" / "rdf" in Table 1) for finding counterexamples — hence WCRT
    lower bounds — in state spaces too large to exhaust.

    The engine explores exactly the network it is given, with each
    variable packed into exactly its declared range.  {!reach} and
    {!Wcrt.sup} explore the query's whole network, refined once by
    {!Ita_analysis.Flow.refine_network}: the abstract-interpretation
    dataflow analysis ({!Ita_analysis.Flow}) computes over the live
    control flow the per-location L/U clock bounds the extrapolation
    reads and the clock activity the reduction reads.  The refinement
    rewrites only those tables, never the classical constants
    [Network.k]; the test suite's independent ExtraM reference explorer
    reads those to check both the abstraction and the refinement. *)

open Ita_ta

type order = Bfs | Dfs | Random_dfs of int  (** seed *)

type slicing = Whole_network
    (** One value with no effect: the engine always explores the
        query's whole network.  Kept because bench/perf passes it to
        {!slice_query}. *)

type budget = { max_states : int option; max_seconds : float option }

val parse_domains : string -> (int, string) result
(** Parse a [TAMC_DOMAINS]-style value: a positive integer.  The
    [Error] carries the valid-value description the warning and the CLI
    converters print. *)

val default_domains : unit -> int
(** Worker-domain count used when a caller passes no [?domains]: the
    [TAMC_DOMAINS] environment variable if set to a positive integer,
    else [Domain.recommended_domain_count ()].  An unrecognised value
    falls back exactly like an unset one — to the machine's core count
    — after a one-line stderr warning naming the valid values. *)

val default_slicing : unit -> slicing
(** [Whole_network]. *)

val slice_query :
  slicing ->
  ?extra_clocks:Guard.clock list ->
  Network.t ->
  Query.t ->
  Ita_analysis.Slice.t * Network.t * Query.t
(** [slice_query Whole_network net q] analyses [net] once and returns
    the query's cone-of-influence report (the cone is seeded with the
    query's components, tested clocks and read variables, plus
    [extra_clocks] — e.g. a measured sup clock), [net] with the
    flow-refined L/U and activity tables {!reach} and {!Wcrt.sup}
    explore, and [q] unchanged.  For the [tamc slice] report and
    bench/perf's replay of the query prelude. *)

val no_budget : budget
val states : int -> budget

type stats = {
  explored : int;
      (** symbolic states popped and expanded.  Depends on the search
          order, and on the schedule at several domains: two domains
          may both expand a zone one of them later prunes. *)
  stored : int;
      (** zones resident in the passed list at the end — zones pruned
          by antichain subsumption are not counted.  The subsumption
          probe and insert are atomic per shard, so concurrent
          comparable inserts can never double-count, and [stored]
          always equals the number of zones in the dumped passed list.
          Which zones survive depends on which were expanded before
          being pruned, so like every count it is deterministic at one
          domain for a given order, but may differ across orders and
          domain counts. *)
  transitions : int;  (** symbolic successors computed *)
  elapsed : float;  (** wall-clock seconds *)
  domains : int;  (** worker domains used *)
  steals : int;  (** frontier nodes stolen across domains (0 at one domain) *)
}

type step = {
  via : Semantics.label option;  (** [None] for the initial state *)
  state : Semantics.state;
}

type outcome =
  | Reachable of { witness : step list; goal_zone : Semantics.Dbm.t; stats : stats }
  | Unreachable of stats
  | Budget_exhausted of stats
      (** the goal was not found within the budget: unreachability is
          NOT established. *)

type snapshot = {
  snap_net : Network.t;
      (** the network the engine actually explored: flow-refined, clock
          bounds bumped with the query constants.  Emission reads only
          its activity tables, to free the clocks active-clock
          reduction pinned *)
  snap_passed : (Semantics.state * Semantics.Dbm.t list) list;
      (** the final passed list, sorted by discrete state with each
          antichain sorted by {!Ita_dbm.Dbm.compare} — byte-stable at
          one domain for a given order (see {!explore}).  Its zones are
          decoded fresh for the snapshot and shared with nothing else;
          certificate emission consumes them, freeing clocks in place *)
}
(** Everything certificate emission ({!Cert_emit}) needs from a
    completed exploration. *)

val reach :
  ?order:order ->
  ?budget:budget ->
  ?domains:int ->
  ?snap:(snapshot -> unit) ->
  Network.t ->
  Query.t ->
  outcome
(** The extrapolation constants are bumped with the query's clock
    constants, so checking [y >= C] is sound for any [C].  The returned
    goal zone is Extra+LU-extrapolated: it contains every exact goal
    valuation but may be coarser above the L/U constants (verdicts are
    unaffected).

    The network is explored whole, refined by
    {!Ita_analysis.Flow.refine_network}; witnesses, states and the goal
    zone are in its own indices.

    [?snap] fires exactly when the verdict is [Unreachable] — the only
    verdict the passed list is an inductive invariant for — with the
    {!snapshot} certificate emission consumes.

    [?domains] (default {!default_domains}) is the number of worker
    domains exploring over one sharded passed list; each worker takes
    its own waiting nodes in [?order].  One worker runs on the calling
    domain, spawns no domain and follows one deterministic schedule:
    the same witness and counts on every run.  Verdicts do not depend on
    the order or the domain count; witnesses of a [Reachable] at
    several domains are valid runs but not necessarily shortest, and
    the counts are schedule-dependent.  Budgeted runs at several
    domains are best-effort: near the budget boundary a run may report
    [Budget_exhausted] where a one-domain run completed, but never the
    converse flip of a definite verdict. *)

val explore :
  ?order:order ->
  ?budget:budget ->
  ?domains:int ->
  ?snap:((Semantics.state * Semantics.Dbm.t list) list -> unit) ->
  Network.t ->
  on_store:(Semantics.config -> unit) ->
  [ `Complete of stats | `Budget_exhausted of stats ]
(** Full exploration, calling [on_store] once per non-subsumed symbolic
    state; used by sup-style queries and state-space measurements.
    It takes no query and explores exactly [net], with [net]'s own L/U
    and activity tables: a freshly built
    network carries the builder's unreduced ones, so a caller that
    wants the refined tables passes
    [Ita_analysis.Flow.refine_network net], and a caller whose goal
    compares a clock against a constant of its own registers it first
    with {!Network.bump_clock_bound}, as {!reach} and {!Wcrt.sup} do.
    The [on_store] calls are serialised under a dedicated mutex, so
    single-threaded consumers (sup tracking, deadlock probes) need no
    changes; at one domain they all run on the calling domain.

    [?snap] fires on [`Complete] with the final passed list: per
    interned discrete state, the antichain of zones still stored for
    it, decoded fresh and sorted as in {!snapshot.snap_passed}.
    Whatever the order or
    domain count, every zone the exploration generated is included in
    one of them.  The list itself is deterministic at one domain for a
    given order; across orders or domain counts its contents may
    differ (see {!stats.stored}).  {!Wcrt.sup} assembles the full
    {!snapshot} from it and the network it explored. *)

val pp_stats : Format.formatter -> stats -> unit
val pp_witness : Network.t -> Format.formatter -> step list -> unit
