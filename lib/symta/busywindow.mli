(** Classical busy-window response-time analysis on one resource
    (Tindell/Lehoczky style, the technique underlying SymTA/S).

    A resource hosts a set of tasks, each with a worst-case execution
    time, an activating event stream and a priority band.  The analysis
    returns, per task, a conservative worst-case response time
    accounting for:

    - preemption (or, non-preemptively, queueing) by higher-band tasks;
    - interference by other tasks of the same band;
    - on non-preemptive resources, blocking by one maximal lower-band
      execution already in progress;
    - multiple pending activations of the task itself (q-activation
      busy windows).

    Same-band interference is precedence-aware, the key to matching
    what SymTA/S actually computes on scenario chains: two steps of the
    same scenario are activated by the same event in pipeline order, so

    - a {e downstream} rival (later step of the same chain) can only
      be pending on behalf of an {e earlier} event: at most the
      scenario's pipeline backlog [ceil (R_chain / P) - 1] instances;
    - an {e upstream} rival is only re-activated by {e later} events;
      counting arrivals since the shared event over the window opened
      [prefix_response] after it — [eta_trigger(w + prefix) - 1] —
      covers both its backlog and fresh arrivals;
    - rivals from {e other} scenarios interfere with their trigger
      stream widened by their chain's response spread.

    Activation streams are the scenario triggers; accumulated chain
    jitter enters only through the backlog and cross-stream terms.
    Propagating jitter into a step's own stream — textbook holistic
    analysis — lets FIFO pipelines at high utilization amplify their
    own jitter without bound (the q-th activation's earliest arrival
    collapses to the critical instant), which is why that formulation
    diverges on this case study. *)

type task = {
  task_name : string;
  group : string;  (** scenario name *)
  step_index : int;  (** position in the scenario chain *)
  chain_pending : int;
      (** the group's pipeline backlog [ceil (R_chain / P) - 1],
          from the enclosing fixpoint's previous round *)
  prefix_response : int;
      (** sum of this chain's responses before this step (previous
          round); offsets the window for upstream-rival arrivals *)
  delta_jitter : int;
      (** release bunching of this task's own activations (upstream
          response spread, capped at one period by the caller): applied
          to [delta_min] in the q-activation analysis only, so the
          global fixpoint stays bounded *)
  block_quantum : int;
      (** longest uninterruptible run of this task: its WCET, or a
          single frame on segmented links *)
  wcet : int;
  stream : Evstream.t;  (** own activation: the scenario trigger *)
  cross_stream : Evstream.t;
      (** how this task interferes with other scenarios: trigger
          widened by the chain's response spread *)
  band : Ita_core.Scenario.band;
}

type discipline = Preemptive | Nonpreemptive

type response = { task : task; r_max : int }

exception Unschedulable of string
(** Raised when a busy window keeps growing (utilization at or above
    one), after a divergence cutoff. *)

val analyze : discipline -> task list -> response list
(** Responses in input order. *)
