(** Application scenarios: annotated UML sequence diagrams flattened to
    a linear chain of steps (paper Figures 2 and 3).

    A step is either a computation on a processor (worst-case
    instruction count) or a message transfer over a link (payload
    size).  Events flow through the chain in order; each step has a
    FIFO queue of pending activations, abstracted as a counter in the
    generated model.

    [band] is the scenario's priority band: [High] scenarios win
    arbitration on [Priority_*] resources and preempt on
    [Priority_preemptive] ones (in the case study, ChangeVolume and
    AddressLookup are [High], HandleTMC is [Low] — paper Section 4). *)

type band = High | Low

type step =
  | Compute of { op : string; resource : string; instructions : float }
  | Transfer of { msg : string; resource : string; bytes : int }

type requirement = {
  req_name : string;
  from_step : int option;
      (** measure from completion of this step; [None] = from event
          arrival *)
  to_step : int;  (** measure to completion of this step *)
  budget_us : int option;  (** the stated timeliness requirement *)
}

type t = {
  name : string;
  trigger : Eventmodel.t;
  band : band;
  steps : step list;
  requirements : requirement list;
}

val make :
  name:string ->
  trigger:Eventmodel.t ->
  band:band ->
  steps:step list ->
  requirements:requirement list ->
  t

val step_name : step -> string
val step_resource : step -> string
val n_steps : t -> int

val requirement : t -> string -> requirement
(** @raise Not_found on an unknown requirement name. *)

val in_window : from_step:int option -> to_step:int -> int -> bool
(** [in_window ~from_step ~to_step k]: step [k] lies in the window a
    requirement measures, from [from_step]'s completion (the event's
    arrival when [None]) to [to_step]'s completion. *)

val validate : resources:Resource.t list -> t -> (unit, string) result
(** Steps reference known resources of the right kind; requirement
    indices are in range and ordered. *)

val pp : Format.formatter -> t -> unit
