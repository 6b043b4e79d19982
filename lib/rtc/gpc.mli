(** Greedy processing components and their composition into an MPA
    analysis of a {!Ita_core.Sysmodel.t}.

    Each scenario step becomes a greedy component on its resource,
    with a demand ({!Curve.t}) and the service ({!Minplus.service})
    left to it:

    - a processor or link offers the unit-rate service ([Fun.id]) to
      its High band; each component consumes demand and passes the
      leftover service to the Low band (fixed-priority resource
      sharing in RTC);
    - within a band, rival demand is subtracted from the service a
      component sees (FIFO pessimism, as in the SymTA/S baseline);
    - a TDMA resource offers the leftover of a unit-rate server after
      its periodic blackout instead of the full rate;
    - the worst-case delay through a component is the horizontal
      deviation between its demand curve and the service left to it.
      A component is activated at its scenario's trigger rate;
      upstream delays enter through the rival terms only: a chain's
      pending backlog, and other scenarios' triggers widened by their
      chains' response spread, iterated to a fixpoint;
    - end-to-end bounds add per-component delays — the loss of
      inter-resource correlation that makes MPA conservative
      (paper Section 5: the "phase shift disappears" in the interval
      domain, so MPA cannot profit from known offsets and always
      reports pno-style bounds). *)

type t
(** The worst-case delay of every scenario step. *)

exception Diverged of string

val analyze : Ita_core.Sysmodel.t -> t
(** The horizon starts at four times the largest scenario period and
    grows automatically if a delay bound collides with it; the delays
    must stabilize within 32 rounds per horizon.
    @raise Diverged when they do not, or when the horizon passes
    2{^34}. *)

val wcrt :
  t -> Ita_core.Sysmodel.t -> scenario:string -> requirement:string -> int
(** Sum of component delays along the requirement's window. *)

val wcrt_bound :
  Ita_core.Sysmodel.t ->
  scenario:string ->
  requirement:string ->
  (int, string) result
(** [analyze] + [wcrt] in one exception-free call — the batch-job
    entry point: divergence comes back as [Error] instead of escaping
    a sweep. *)
