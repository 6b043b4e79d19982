(** Greedy processing components and their composition into an MPA
    analysis of a {!Ita_core.Sysmodel.t}.

    Each scenario step becomes a greedy component on its resource:

    - a processor or link offers the full-rate service curve to its
      High band; each component consumes demand and passes the
      leftover service to the Low band (fixed-priority resource
      sharing in RTC);
    - within a band, rival demand is subtracted from the service a
      component sees (FIFO pessimism, as in the SymTA/S baseline);
    - the worst-case delay through a component is the horizontal
      deviation between its demand curve and its service curve, and
      its output event stream is the input arrival curve shifted by
      that delay (jitter propagation);
    - end-to-end bounds add per-component delays — the loss of
      inter-resource correlation that makes MPA conservative
      (paper Section 5: the "phase shift disappears" in the interval
      domain, so MPA cannot profit from known offsets and always
      reports pno-style bounds). *)

type step_report = {
  scenario : string;
  step_index : int;
  step_name : string;
  resource : string;
  wcet : int;
  delay : int;  (** worst-case delay through this component, us *)
  backlog : int;  (** backlog bound in events *)
}

type t = { steps : step_report list; iterations : int; horizon : int }

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

val pp : Format.formatter -> t -> unit
