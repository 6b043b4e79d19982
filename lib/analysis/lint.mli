(** Well-formedness diagnostics over a network of timed automata.

    [run] executes every pass and returns the findings sorted by
    severity.  The passes are static — no zone graph is built — so they
    are cheap enough to run on every design-space candidate before the
    checker.  Since the dataflow engine ({!Flow}) landed, a subset is
    {e semantic}: powered by the per-location interval fixpoint rather
    than a syntactic scan.  The passes:

    - [unused-clock]: a clock no guard or invariant ever tests;
    - [never-reset-clock]: a clock that is tested but never reset
      (measures absolute time; often intentional, hence [Info]);
    - [dead-var]: an integer variable that is never read;
    - [range-overflow]: an update whose interval enclosure — under the
      flow analysis's per-location environment at the edge source,
      refined by the edge's own guard — can leave the variable's
      declared range (would raise [Update.Out_of_range] at exploration
      time), or a clock reset that can be negative;
    - [unreachable-location]: no edge path from the initial location;
    - [invariant-misuse]: lower-bound or equality invariants, and data
      predicates in invariants (ignored by the symbolic semantics);
    - [urgent-clock-guard]: clock guards on urgent-channel edges or
      broadcast receivers (rejected by {!Network.Builder.build} — only
      networks built with [~validate:false] can reach this pass);
    - [channel-peer]: binary channels with senders but no receivers (or
      vice versa), channels never used, binary channels whose only
      sender/receiver pairs live in one component.  A broadcast channel
      with senders and no receivers is silent: that is the paper's
      [hurry!] greediness idiom;
    - [committed-cycle]: a cycle entirely through committed locations —
      the checker can livelock on zero-time discrete steps;
    - [zeno-cycle]: a structural cycle that resets no clock which is
      also bounded from below on the cycle, so runs may converge in
      time.  Downgraded to [Info] when the cycle synchronizes (the
      pacing may come from the partner, invisible per-component);
    - [dead-edge] (semantic): an edge whose guard is unsatisfiable
      under the inferred intervals, a synchronizing edge no partner is
      ever co-enabled with, or a syntactically reachable location no
      valuation flows into (reported once at the location; its
      outgoing edges are suppressed as cascade noise);
    - [always-true-guard] (semantic, [Hint]): a non-trivial data guard
      that evaluates to true at every reachable valuation;
    - [sync-write-race] (semantic): sender and receiver of a
      co-enabled synchronization pair both assign the same shared
      variable — participants update sender-first, so the receiver's
      value silently wins;
    - [outside-query-cone] (semantic, [Hint]): a component outside the
      backward cone of influence of the observed query ({!Slice}) —
      it cannot block, force or retime anything the observed
      components, clocks or variables depend on, though the checker
      still explores it.  Only emitted when [observed_comps] is
      given. *)

open Ita_ta

val run :
  ?observed_comps:int list ->
  ?observed_clocks:Guard.clock list ->
  ?observed_vars:Expr.var list ->
  Network.t ->
  Diagnostic.t list
(** [observed_clocks] / [observed_vars] are referenced from outside the
    model (reachability queries, WCRT sup measurements) and are exempt
    from the unused/never-reset/dead passes, as are clocks already
    pinned by {!Network.bump_clock_bound}.  [observed_comps] are the
    components a query watches; when given, the [outside-query-cone]
    pass reports the components outside that query's cone. *)

val pp_report :
  ?resolve:(Diagnostic.site -> string option) ->
  ?pos:(Diagnostic.site -> (int * int) option) ->
  Network.t ->
  Format.formatter ->
  Diagnostic.t list ->
  unit
(** One finding per line followed by an
    [N errors, N warnings, N info, N hints] summary line. *)

val to_json :
  ?resolve:(Diagnostic.site -> string option) ->
  ?pos:(Diagnostic.site -> (int * int) option) ->
  Network.t ->
  Diagnostic.t list ->
  string
(** Machine-readable report:
    [{"findings": [{"severity", "pass", "site", "position"?,
    "message", "fix"?}, ...], "summary": {...}}].  Both reports print
    positioned findings first by (line, col), the rest in
    component-major site order, ties broken by the stable pass id. *)
