(** System-level compositional analysis (the SymTA/S approach):
    per-resource busy-window analyses coupled by event-stream
    propagation, iterated to a global fixpoint.

    Each scenario step is a task activated by the output stream of its
    predecessor (the scenario trigger for step 0).  Output jitter grows
    with the response-time spread, which feeds back into the
    interference terms of other resources, so the whole system is
    re-analyzed until the streams stabilize.

    End-to-end bounds are sums of local worst-case response times
    along the measured window — conservative (compositional analysis
    loses inter-resource correlation, which is exactly why the paper's
    Table 2 shows SymTA/S at or above the UPPAAL values). *)

type step_report = {
  scenario : string;
  step_index : int;
  step_name : string;
  resource : string;
  wcet : int;
  r_min : int;
  r_max : int;
  activation : Evstream.t;
}

type t = { steps : step_report list; iterations : int }

exception Diverged of string
(** Stream jitters kept growing: the system is (or appears) overloaded. *)

val analyze : Ita_core.Sysmodel.t -> t
(** Iterate local busy-window analyses and stream propagation until
    the chain states stabilize, within 64 rounds.
    @raise Diverged when they do not.
    @raise Busywindow.Unschedulable when a busy window diverges. *)

val wcrt :
  t -> Ita_core.Sysmodel.t -> scenario:string -> requirement:string -> int
(** Sum of local [r_max] along the requirement's window,
    microseconds. *)

val wcrt_bound :
  Ita_core.Sysmodel.t ->
  scenario:string ->
  requirement:string ->
  (int, string) result
(** [analyze] + [wcrt] in one exception-free call — the batch-job
    entry point: divergence and unschedulability come back as
    [Error] instead of escaping a sweep. *)

val pp : Format.formatter -> t -> unit
