(** Forward symbolic reachability: the model checker's engine.

    Explores the zone graph with a passed list keyed on the discrete
    state (zone lists with inclusion subsumption) and a waiting list
    whose discipline is the search order.  [Bfs] gives shortest
    counterexamples; [Dfs] and [Random_dfs] are the paper's "structured
    testing" modes ("df" / "rdf" in Table 1) for finding
    counterexamples — hence WCRT lower bounds — in state spaces too
    large to exhaust. *)

open Ita_ta

type order = Bfs | Dfs | Random_dfs of int  (** seed *)

type abstraction = Semantics.abstraction = ExtraM | ExtraLU | LuSim
    (** Finite abstraction applied to zones (see {!Semantics.abstraction}).
        The default everywhere is {!default_abstraction} (normally
        [ExtraLU]); [ExtraM] is kept as a differential-testing oracle
        and for exact goal-zone bounds.  Under [LuSim] zones are stored
        unextrapolated and the passed-list antichains subsume with the
        a◁LU simulation test ({!Ita_dbm.Dbm.le_lu}) over the same
        flow-refined per-state L/U constants the [ExtraLU]
        extrapolation reads — strictly coarser pruning, identical
        verdicts and WCRTs, exact goal zones and witness traces.

        Every exploration first runs the abstract-interpretation
        dataflow analysis ({!Ita_analysis.Flow}): the per-location L/U
        clock bounds are recomputed over the live control flow with
        guard constants evaluated under the inferred intervals (never
        looser than the builder's), and each variable is packed into
        exactly its inferred range.  The refinement rewrites only the
        L/U tables, never the classical constants, so [ExtraM] is also
        the tests' oracle for it. *)

type slicing = Ita_analysis.Slice.mode = Off | Coi | CoiMerge
    (** Query-directed model reduction applied before exploration (see
        {!Ita_analysis.Slice}).  The default everywhere is
        {!default_slicing} (normally [CoiMerge]): components, variables
        and clocks outside the query's backward cone of influence are
        removed and quasi-equal clocks are merged, with byte-identical
        verdicts and WCRTs.  [Coi] skips the merging; [Off] is the
        differential-testing oracle. *)

type budget = { max_states : int option; max_seconds : float option }

val parse_domains : string -> (int, string) result
(** Parse a [TAMC_DOMAINS]-style value: a positive integer, where [1]
    selects the sequential engine.  The [Error] carries the valid-value
    description the warning and the CLI converters print. *)

val parse_abstraction : string -> (abstraction, string) result
(** Parse a [TAMC_ABSTRACTION]-style value ([extram] / [extralu] /
    [lusim], case-insensitive). *)

val parse_slicing : string -> (slicing, string) result
(** Parse a [TAMC_SLICING]-style value ([off] / [coi] / [coimerge],
    case-insensitive). *)

val abstraction_name : abstraction -> string
(** The lower-case name {!parse_abstraction} reads back. *)

val slicing_name : slicing -> string
(** The lower-case name {!parse_slicing} reads back. *)

val default_domains : unit -> int
(** Worker-domain count used when a caller passes no [?domains]: the
    [TAMC_DOMAINS] environment variable if set to a positive integer,
    else [Domain.recommended_domain_count ()].  [1] selects the
    sequential engine.  An unrecognised value falls back exactly like
    an unset one — to the machine's core count — after a one-line
    stderr warning naming the valid values. *)

val default_abstraction : unit -> abstraction
(** Abstraction used when a caller passes no [?abstraction]: the
    [TAMC_ABSTRACTION] environment variable ([extram] / [extralu] /
    [lusim], so CI can force the whole suite through any abstraction),
    else [ExtraLU].  Unrecognised values fall back to [ExtraLU] after
    a one-line stderr warning naming the valid values. *)

val default_slicing : unit -> slicing
(** Slicing mode used when a caller passes no [?slicing]: the
    [TAMC_SLICING] environment variable ([off] / [coi] / [coimerge],
    so CI can force the whole suite through the unsliced paths), else
    [CoiMerge].  Unrecognised values fall back to [CoiMerge] after a
    one-line stderr warning naming the valid values. *)

val slice_query :
  slicing ->
  ?extra_clocks:Guard.clock list ->
  Network.t ->
  Query.t ->
  Ita_analysis.Slice.t * Network.t * Query.t
(** [slice_query mode net q] computes the query-directed reduction of
    [net] (the cone is seeded with the query's components, tested
    clocks and read variables, plus [extra_clocks] — e.g. a measured
    sup clock) and returns the slice, the reduced network and the
    query translated into its index space.  Used by {!reach} and by
    {!Wcrt}; exposed for the [tamc slice] report and the test
    suites. *)

val no_budget : budget
val states : int -> budget

val seconds : float -> budget
(** Wall-clock budget — the per-job deadline of batch sweeps, where
    one diverging exploration must not stall the whole run. *)

val combine : budget -> budget -> budget
(** Tightest of both limits, dimension-wise. *)

type stats = {
  explored : int;
      (** symbolic states popped and expanded.  Schedule-dependent under
          parallel exploration: two domains may both expand a zone one
          of them later prunes. *)
  stored : int;
      (** zones resident in the passed list at the end — zones pruned
          by antichain subsumption are not counted.  Under subset
          subsumption ([ExtraM]/[ExtraLU]) deterministic at any domain
          count for complete explorations: the subsumption probe and
          insert are atomic per shard, so concurrent comparable inserts
          can never double-count.  Under [LuSim] the simulation
          quasi-order is not antisymmetric — two distinct zones can
          simulate each other, and which representative survives (hence
          the exact count) is schedule-dependent. *)
  transitions : int;  (** symbolic successors computed *)
  elapsed : float;  (** wall-clock seconds *)
  domains : int;  (** worker domains used (1 = sequential engine) *)
  steals : int;  (** frontier nodes stolen across domains (0 when sequential) *)
  subsumed_lusim : int;
      (** successor configurations discharged by the a◁LU simulation
          test — [0] unless the abstraction is [LuSim].  Like
          [explored], schedule-dependent under parallel exploration. *)
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
  snap_slice : Ita_analysis.Slice.t;
      (** translates states, zones and LU vectors back to the original
          network's index space *)
  snap_net : Network.t;
      (** the network the engine actually explored: sliced,
          flow-refined, clock bounds bumped with the query constants —
          the tables per-state LU vectors must be resolved against *)
  snap_passed : (Semantics.state * Semantics.Dbm.t list) list;
      (** the final passed list, sorted by discrete state with each
          antichain sorted by {!Ita_dbm.Dbm.compare} — byte-stable
          across engines and domain counts *)
}
(** Everything certificate emission ({!Cert_emit}) needs from a
    completed exploration. *)

val reach :
  ?order:order ->
  ?budget:budget ->
  ?abstraction:abstraction ->
  ?domains:int ->
  ?slicing:slicing ->
  ?snap:(snapshot -> unit) ->
  Network.t ->
  Query.t ->
  outcome
(** The extrapolation constants are bumped with the query's clock
    constants, so checking [y >= C] is sound for any [C].  Under the
    default [ExtraLU] the returned goal zone may be coarser than the
    exact reachable valuations (verdicts are unaffected); pass
    [~abstraction:ExtraM] when tight goal-zone bounds matter.

    [?slicing] (default {!default_slicing}) reduces the network to the
    query's cone of influence first; the verdict is unaffected.
    Witnesses, states and the goal zone are translated back to the
    original network's index space: removed components are shown at
    their initial location, removed variables at their initial value,
    removed clocks unconstrained, merged clocks equal to their
    representative.

    [?snap] fires exactly when the verdict is [Unreachable] — the only
    verdict the passed list is an inductive invariant for — with the
    {!snapshot} certificate emission consumes.

    [?domains] (default {!default_domains}) picks the engine:
    [1] is the exact sequential code path; [d > 1] explores with [d]
    worker domains over a sharded passed list.  Verdicts are identical;
    witnesses of a parallel [Reachable] are valid runs but not
    necessarily shortest, and [explored]/[transitions] counts are
    schedule-dependent.  Budgeted parallel runs are best-effort: near
    the budget boundary a run may report [Budget_exhausted] where the
    sequential engine completed, but never the converse flip of a
    definite verdict. *)

val explore :
  ?order:order ->
  ?budget:budget ->
  ?abstraction:abstraction ->
  ?domains:int ->
  ?extra_bounds:(Guard.clock * int) list ->
  ?snap:(Network.t * (Semantics.state * Semantics.Dbm.t list) list -> unit) ->
  Network.t ->
  on_store:(Semantics.config -> unit) ->
  [ `Complete of stats | `Budget_exhausted of stats ]
(** Full exploration, calling [on_store] once per non-subsumed symbolic
    state; used by sup-style queries and state-space measurements.
    With [domains > 1] the [on_store] calls are serialised under a
    dedicated mutex, so existing single-threaded consumers (sup
    tracking, deadlock probes) need no changes.

    [?snap] fires on [`Complete] with the explored (flow-refined,
    bumped) network and the final passed list: per interned discrete
    state, the antichain of maximal zones stored for it, sorted as in
    {!snapshot.snap_passed}.  Under subset subsumption
    ([ExtraM]/[ExtraLU]) it is byte-identical at any domain count;
    under [LuSim] it is only canonical up to mutual a◁LU simulation
    (see {!stats.stored}).  Callers that slice themselves
    ({!Wcrt.sup}) assemble the full {!snapshot} from it. *)

val pp_stats : Format.formatter -> stats -> unit
val pp_witness : Network.t -> Format.formatter -> step list -> unit
