(** The min-plus operators {!Gpc} composes: the delay and backlog
    bounds of a greedy component and its leftover service, evaluated
    over breakpoint candidates.  Each operator says when that is exact
    for the staircase / piecewise-linear curves of this library;
    test_rtc checks all three against brute force.

    All operators take a [horizon]: the largest window the analysis
    will ever inspect.  It must dominate the longest busy period; the
    {!Gpc} layer picks it from the system's periods and checks
    plausibility. *)

val horizontal_deviation :
  horizon:int -> demand:Curve.t -> service:Curve.t -> int
(** [h(demand, service)]: the delay bound
    [sup_x inf {tau >= 0 | service (x + tau) >= demand x}];
    the classic RTC worst-case delay through a greedy component.
    Returns [max_int] when the service never catches up within the
    horizon.  Exact when every catch-up ends inside the horizon.
    Past it a {!leftover} has no corners and need not be monotone, so
    the binary search for a later catch-up can overshoot: the result
    is still a sound upper bound, but not always the least one. *)

val vertical_deviation :
  horizon:int -> demand:Curve.t -> service:Curve.t -> int
(** Backlog bound [sup_x (demand x - service x)], exact on
    [[0, horizon]]. *)

val leftover : horizon:int -> service:Curve.t -> demand:Curve.t -> Curve.t
(** Remaining lower service curve after a greedy component consumed
    [demand]: [beta'(d) = sup_{0 <= l <= d} (beta l - alpha l)],
    clamped at 0.  Exact on [[0, horizon]]; past the horizon the sup
    runs over the corners up to the horizon and [d] itself, a lower
    bound that need not be monotone. *)
