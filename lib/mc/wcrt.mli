(** Worst-case response time extraction.

    The paper (Property 1) finds the WCRT of a measured event by a
    binary search for the smallest [C] such that
    [A[] (rstat_m.seen -> rstat_m.y < C)] holds, i.e. such that
    [seen && y >= C] is unreachable.  {!sup} answers the same question
    in one exploration: it records the maximal value of the measured
    clock over the goal states.  The binary search survives as its
    oracle in the test suite ([test/models.ml]).

    Under a budget, a run that is cut off still reports the largest
    value it observed, a sound WCRT lower bound; [Ita_core.Analyze]
    turns that into the paper's depth-first "structured testing"
    fallback.

    All values are in model time units (the paper's models use
    microseconds). *)

open Ita_ta

type bound_kind = Ita_cert.Cert.sup_kind = Attained | Approached
(** [Attained]: the sup is a reachable value ([y <= c] weakly).
    [Approached]: the sup is a limit ([y < c] strictly).  The
    certificate's own sup kind, so a [Sup] verdict goes into
    {!Cert_emit.of_snapshot} as is. *)

type sup_result =
  | Sup of { value : int; kind : bound_kind; stats : Reach.stats }
  | Goal_unreachable of Reach.stats
  | Sup_budget_exhausted of { observed : int option; stats : Reach.stats }
      (** the budget ran out; [observed] is the largest response the
          cut-off run proved reachable, a sound lower bound on the sup:
          the largest goal bound of the measured clock below the
          ceiling, else the ceiling itself once a goal bound reached
          it, or the ceiling of an earlier attempt that collided *)
  | Sup_unbounded of { ceiling : int; stats : Reach.stats }
      (** the sup still collided with the extrapolation ceiling at
          [max_ceiling]: the clock is (almost certainly) unbounded at
          the goal, e.g. time flows freely there. *)

val sup :
  ?order:Reach.order ->
  ?budget:Reach.budget ->
  ?domains:int ->
  ?snap:(Reach.snapshot -> unit) ->
  ?max_ceiling:int ->
  Network.t ->
  at:Query.t ->
  clock:Guard.clock ->
  sup_result
(** [sup net ~at ~clock] explores the full zone graph and returns the
    supremum of [clock] over goal states.  The extrapolation ceiling
    for the measured clock starts at the clock's own constant in [net]
    ([Network.k], or 1 if that is 0) and is multiplied by 4 until the
    sup falls strictly below it, which guarantees soundness of the
    abstraction.  A caller picks the first ceiling by raising that
    constant with {!Network.bump_clock_bound}: [Ita_core.Gen.generate]
    raises its observer clock's to four times the uncontended window.
    [?max_ceiling] (default [2^40]) caps the loop: a sup that still
    collides there is [Sup_unbounded].

    The network is explored whole, refined once by
    {!Ita_analysis.Flow.refine_network}; every ceiling attempt explores
    that network with only the ceiling bumped.

    [?snap] fires exactly when the result is [Sup], with the final
    (below-ceiling) attempt's {!Reach.snapshot} for certificate
    emission. *)
