(** The min-plus operators {!Gpc} composes: the delay bound of a
    greedy component and its leftover service, evaluated over
    candidate windows.  The candidates are the operands' raw corners
    ({!Curve.breakpoints}), each with its two integer neighbours, plus
    0 and the horizon: this is the one place corners are widened.
    Each operator says when that is exact for the staircase /
    piecewise-linear curves of this library; test_rtc checks both
    against brute force, on a leftover of a leftover too.

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
    horizon.  Exact, for a staircase demand and a service monotone on
    [[0, horizon]], when every catch-up ends inside the horizon: the
    delay peaks at a corner of the demand.  Past it a {!leftover} has
    no corners and need not be monotone, so the binary search for a
    later catch-up can overshoot: the result is still a sound upper
    bound, but not always the least one. *)

val leftover : horizon:int -> service:Curve.t -> demand:Curve.t -> Curve.t
(** Remaining lower service curve after a greedy component consumed
    [demand]: [beta'(d) = sup_{0 <= l <= d} (beta l - alpha l)],
    clamped at 0.  Exact on [[0, horizon]] for a staircase demand
    (a sum of staircases and constants) and a service monotone there:
    the sup is reached at [d] or just before a step of the demand.
    Past the horizon the sup runs over the candidates up to the
    horizon and [d] itself, a lower bound that need not be monotone.
    Its raw corners are its operands' raw corners. *)
