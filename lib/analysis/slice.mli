(** Query-directed model reduction: backward cone-of-influence slicing
    plus quasi-equal clock merging.

    A single query (a reachability goal or a WCRT sup-query) observes a
    handful of components, clocks and variables; architecture-level
    models routinely carry much more.  This pass runs between
    elaboration and exploration and shrinks the network along every
    axis the engine pays for:

    - {e components} that provably cannot affect the verdict are
      dropped from the product (smaller location vectors, fewer
      interleavings);
    - {e variables} only those components touch are dropped from the
      packed passed-list key;
    - {e clocks} nobody relevant tests are dropped from the DBM
      dimension, and quasi-equal clocks — always reset together, to
      the same constants, hence always equal — are merged into one
      representative ([CoiMerge] only);
    - {e dead edges} of the kept components (proved unfirable by the
      {!Flow} interval analysis) are dropped, and the invariants of
      flow-unreachable locations are cleared.

    Soundness of component removal.  A component is kept when any of
    the following holds, closed under fixpoint: it appears in the
    goal; it can constrain time or firing anywhere the flow analysis
    reaches (a non-[Normal] location kind, a non-trivial invariant, or
    a live edge on an urgent channel); it writes a variable the kept
    cone reads; it resets a clock the kept cone tests; or it is a
    synchronization peer a kept component needs (the opposite role of
    a kept live edge on a binary channel, or a live broadcast sender
    with a kept live receiver).  A removed component therefore never
    blocks, forces or retimes anything the kept components do, and
    never writes anything they read: projecting any original run onto
    the kept components yields a run of the sliced network and vice
    versa, so verdicts, witnesses' kept projections, and clock suprema
    over goal states are {e byte-identical}.  (Removed broadcast
    receivers do move in original runs; their state is invisible to
    the kept cone.)

    The one caveat is runtime modeling errors: a removed component's
    dropped guards and updates are no longer {e evaluated}, so a model
    that would have raised [Division_by_zero] or [Update.Out_of_range]
    inside the removed part no longer does.  The lint passes
    ([range-overflow] in particular) cover that ground statically.

    Quasi-equal merging.  Two kept clocks are merged when neither is
    pinned and every live edge of the kept cone resets both to the
    same integer constant or neither (clocks all start at [0]), so
    [x = y] is a network invariant and replacing [y] by [x] in every
    guard and invariant preserves the timed semantics exactly. *)

open Ita_ta

type mode = Off | Coi | CoiMerge
    (** [Off] — the identity slice.  [Coi] — cone-of-influence
        slicing only.  [CoiMerge] (the mode every query runs under) —
        slicing plus quasi-equal clock merging.  The differential
        oracle for slicing is test-side: an unsliced exploration of
        the whole network ([Models.unsliced_reach] and
        [Models.unsliced_sup] in the test suite). *)

type goal = {
  g_comps : int list;  (** components the query observes *)
  g_clocks : Guard.clock list;  (** clocks the query tests or measures *)
  g_vars : Expr.var list;  (** variables the query reads *)
}
(** The observation seed of the backward cone.  Goal components are
    always kept; goal clocks and variables are always part of the
    sliced network, though a goal clock may end up {e merged} into a
    representative — translate indices through {!map_clock}. *)

type t = {
  original : Network.t;
  net : Network.t;  (** the reduced network the engine should explore *)
  identity : bool;
      (** nothing was removed or merged; [net == original] and every
          map is the identity *)
  comp_map : int option array;  (** original component -> sliced, [None] = removed *)
  comp_unmap : int array;  (** sliced component -> original *)
  edge_unmaps : int array array;  (** sliced (comp, edge) -> original edge *)
  clock_map : int option array;
      (** original clock -> sliced; merged clocks map to their
          representative's sliced index; index [0] maps to [0] *)
  var_map : int option array;  (** original variable -> sliced, [None] = removed *)
  removed_comps : int list;  (** ascending original indices *)
  removed_clocks : int list;  (** dropped entirely (merged-away not listed) *)
  removed_vars : int list;
  merged : (Guard.clock * Guard.clock) list;
      (** [(member, representative)] original indices, member <> repr *)
  dropped_edges : (int * int) list;
      (** dead [(comp, edge)] pairs dropped from kept components *)
}

val make : ?mode:mode -> fa:Flow.t -> Network.t -> goal -> t
(** Compute the slice.  [fa] is the flow analysis of the {e same}
    network: the caller owns it, so one analysis serves the slice and
    whatever else the caller derives from it ([Lint.run]'s
    semantic passes, [Ita_mc.Reach.slice_query]'s refinement).  The
    rebuilt network is produced with the builder's validation off, so
    slicing never rejects a network the caller already accepted; no
    new urgent/broadcast clock guards can be introduced by the
    rewrite.  It carries the builder's unrefined L/U and activity
    tables.  When nothing is removed, dropped or merged the original
    network is returned unchanged ([identity]); that happens only
    when every edge is live. *)

val quasi_equal :
  Network.t ->
  candidate:(Guard.clock -> bool) ->
  edges:(int -> int -> bool) ->
  int array
(** [quasi_equal net ~candidate ~edges] groups the [candidate] clocks
    by their reset signature over the edges [(comp, edge)] that
    [edges] selects: on each such edge, the non-negative integer
    constant the clock is reset to, or no reset.  A candidate reset
    to anything else on a selected edge is in no group.  Returns, per
    clock, the smallest member of its group when that is another
    clock, else [-1].  {!make} merges with it under [CoiMerge] over
    the kept live edges; [Lint]'s [merged-query-clock] pass runs it
    over every edge. *)

val map_comp : t -> int -> int option
val map_clock : t -> Guard.clock -> Guard.clock option
val map_var : t -> Expr.var -> Expr.var option

val map_guard : t -> Guard.t -> Guard.t
(** Rewrite a guard over original indices into sliced indices.
    @raise Invalid_argument when it mentions a removed clock or
    variable (a goal seeded with the guard's clocks and variables
    never does). *)

val unmap_state : t -> Semantics.state -> Semantics.state
(** Lift a sliced discrete state back to original index space: removed
    components are shown at their initial location and removed
    variables at their initial value (a removed component is never
    forced to move except as a broadcast receiver, so this is a valid
    completion; see the module header). *)

val unmap_label : t -> Semantics.label -> Semantics.label
(** Re-index a transition label; receiver lists only mention kept
    components. *)

val unmap_zone : t -> Semantics.Dbm.t -> Semantics.Dbm.t
(** Lift a zone over the sliced clocks back to the original dimension:
    kept entries are copied through the map, merged members come out
    equal to their representative, removed clocks are unconstrained
    ([>= 0]). *)

val pp_report :
  ?resolve:(Diagnostic.site -> string option) ->
  Format.formatter ->
  t ->
  unit
(** Human-readable removal/merge report — one line per removed
    component (with [file:line:col] provenance when [resolve] yields
    one), removed clock, removed variable, merged pair and dropped
    dead edge, followed by a kept/total summary. *)
