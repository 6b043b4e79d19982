(** The cone-of-influence report of a query.

    A single query (a reachability goal or a WCRT sup-query) observes a
    handful of components, clocks and variables.  This pass computes
    the query's backward cone of influence and reports what lies
    outside it: components, clocks and variables that cannot affect
    the verdict, and dead edges of the components inside it (proved
    unfirable by the {!Flow} interval analysis).  It is a report only:
    the engine explores the query's whole network ([tamc slice] and the
    [outside-query-cone] lint hint print the report).

    The cone.  A component is in it when any of the following holds,
    closed under fixpoint: it appears in the goal; it can constrain
    time or firing anywhere the flow analysis reaches (a non-[Normal]
    location kind, a non-trivial invariant, or a live edge on an urgent
    channel); it writes a variable the cone reads; it resets a clock
    the cone tests; or it is a synchronization peer a component in the
    cone needs (the opposite role of a live edge in the cone on a
    binary channel, or a live broadcast sender with a live receiver in
    the cone).  A component outside it therefore never blocks, forces
    or retimes anything the cone does, and never writes anything the
    cone reads: projecting any run onto the cone's components yields a
    run of the cone alone and vice versa. *)

open Ita_ta

type goal = {
  g_comps : int list;  (** components the query observes *)
  g_clocks : Guard.clock list;  (** clocks the query tests or measures *)
  g_vars : Expr.var list;  (** variables the query reads *)
}
(** The observation seed of the backward cone: goal components,
    clocks and variables are always in it, as are pinned clocks. *)

type t = {
  net : Network.t;  (** the network the report is about *)
  removed_comps : int list;  (** components outside the cone, ascending *)
  removed_clocks : int list;  (** clocks the cone never tests, ascending *)
  removed_vars : int list;
      (** variables the cone neither reads nor writes, ascending *)
  dead_edges : (int * int) list;
      (** dead [(comp, edge)] pairs of components in the cone *)
}
(** What a reduction to the cone could remove; the [removed_*] names
    are kept because bench/perf reads [removed_comps]. *)

val cone : fa:Flow.t -> Network.t -> goal -> t
(** The query's cone report.  [fa] is the flow analysis of the {e same}
    network: the caller owns it, so one analysis serves the report and
    whatever else the caller derives from it ([Lint.run]'s semantic
    passes, [Ita_mc.Reach.slice_query]'s refinement).
    @raise Invalid_argument on a goal index out of range. *)

val pp_report :
  ?resolve:(Diagnostic.site -> string option) ->
  Format.formatter ->
  t ->
  unit
(** One line per component (with [file:line:col] provenance when
    [resolve] yields one), clock and variable outside the cone and per
    dead edge, followed by the cone's share of the network. *)
