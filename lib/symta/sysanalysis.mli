(** System-level compositional analysis (the SymTA/S approach):
    per-resource busy-window analyses coupled through the scenario
    chains, iterated to a global fixpoint.

    Each scenario step is a task activated at its scenario's trigger
    rate.  A round reads each chain's pipeline backlog, response spread
    and per-step response prefixes off the previous round's responses;
    the spread widens the chain's trigger as other scenarios see it
    (a task's [cross_stream]), which feeds back into the
    interference terms of other resources, so the whole system is
    re-analyzed until the chain states stabilize.

    End-to-end bounds are sums of local worst-case response times
    along the measured window — conservative (compositional analysis
    loses inter-resource correlation, which is exactly why the paper's
    Table 2 shows SymTA/S at or above the UPPAAL values). *)

type t
(** The worst-case response time of every scenario step. *)

exception Diverged of string
(** The chain states kept growing: the system is (or appears)
    overloaded. *)

val analyze : Ita_core.Sysmodel.t -> t
(** Iterate local busy-window analyses until the chain states
    stabilize, within 64 rounds.
    @raise Diverged when they do not.
    @raise Busywindow.Unschedulable when a busy window diverges. *)

val wcrt :
  t -> Ita_core.Sysmodel.t -> scenario:string -> requirement:string -> int
(** Sum of the local worst-case responses along the requirement's
    window, microseconds. *)

val wcrt_bound :
  Ita_core.Sysmodel.t ->
  scenario:string ->
  requirement:string ->
  (int, string) result
(** [analyze] + [wcrt] in one exception-free call — the batch-job
    entry point: divergence and unschedulability come back as
    [Error] instead of escaping a sweep. *)
