(** Worst-case response time extraction.

    The paper (Property 1) finds the WCRT of a measured event by a
    binary search for the smallest [C] such that
    [A[] (rstat_m.seen -> rstat_m.y < C)] holds, i.e. such that
    [seen && y >= C] is unreachable.  This module implements:

    - {!binary_search}: exactly that strategy;
    - {!sup}: a direct sup-query (explore everything, record the
      maximal value of the measured clock at the goal), usually
      cheaper — one exploration instead of ~log runs;
    - {!probe_lower}: the paper's "structured testing" fallback for
      intractable state spaces — depth-first / random-depth-first
      search for counterexamples under a state budget, which yields
      WCRT *lower* bounds (the "> 400.000 (df)" entries of Table 1).

    All values are in model time units (the paper's models use
    microseconds). *)

open Ita_ta

type bound_kind = Attained | Approached
(** [Attained]: the sup is a reachable value ([y <= c] weakly).
    [Approached]: the sup is a limit ([y < c] strictly). *)

type sup_result =
  | Sup of { value : int; kind : bound_kind; stats : Reach.stats }
  | Goal_unreachable of Reach.stats
  | Sup_budget_exhausted of { observed : int option; stats : Reach.stats }
  | Sup_unbounded of { ceiling : int; stats : Reach.stats }
      (** the sup still collided with the extrapolation ceiling at
          [max_ceiling]: the clock is (almost certainly) unbounded at
          the goal, e.g. time flows freely there. *)

val sup :
  ?order:Reach.order ->
  ?budget:Reach.budget ->
  ?abstraction:Reach.abstraction ->
  ?domains:int ->
  ?snap:(Reach.snapshot -> unit) ->
  ?initial_ceiling:int ->
  ?max_ceiling:int ->
  Network.t ->
  at:Query.t ->
  clock:Guard.clock ->
  sup_result
(** [sup net ~at ~clock] explores the full zone graph and returns the
    supremum of [clock] over goal states.  The extrapolation ceiling
    for the measured clock starts at [initial_ceiling] (default
    [1_000_000]) and is multiplied by 4 until the sup falls strictly
    below it, which guarantees soundness of the abstraction.

    The network is first reduced with {!Reach.default_slicing} to the
    cone of the goal plus the measured clock; the supremum is
    unchanged.

    [?snap] fires exactly when the result is [Sup], with the final
    (below-ceiling) attempt's {!Reach.snapshot} for certificate
    emission. *)

type search_result = {
  lower : int option;  (** largest [C] with [goal && clock >= C] reachable *)
  upper : int option;  (** smallest [C] proven unreachable *)
  runs : int;
  total_explored : int;
  total_elapsed : float;
}

val binary_search :
  ?order:Reach.order ->
  ?budget:Reach.budget ->
  ?abstraction:Reach.abstraction ->
  ?domains:int ->
  ?hi:int ->
  Network.t ->
  at:Query.t ->
  clock:Guard.clock ->
  search_result
(** Binary search with doubling to find the initial unreachable [hi]
    (default start [1_000_000]).  With an exhausted budget the
    so-far-established bounds are returned. *)

val probe_lower :
  ?order:Reach.order ->
  ?abstraction:Reach.abstraction ->
  ?domains:int ->
  Network.t ->
  at:Query.t ->
  clock:Guard.clock ->
  budget:Reach.budget ->
  start:int ->
  step:int ->
  search_result
(** Climb [C] from [start] by [step] while the budgeted search keeps
    finding counterexamples; the last success is a sound WCRT lower
    bound. *)
