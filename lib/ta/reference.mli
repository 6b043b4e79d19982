(** Naive reference semantics for certificate checking.

    A deliberate re-implementation of the symbolic successor relation
    from the network definition alone — plain DBM operations, no
    extrapolation, no active-clock reduction, no interning, no
    sharding — so an independent certificate checker
    ({!Ita_cert.Cert}) shares nothing with the optimized exploration
    path beyond the model representation and plain DBM operations. *)

module Dbm = Ita_dbm.Dbm

type state = Semantics.state = { locs : int array; env : int array }
type label = Semantics.label

val apply_invariants : Network.t -> state -> Dbm.t -> unit
(** Intersect with the invariants at the state's locations, bounds
    evaluated under the state's environment. *)

val inv_zone : Network.t -> state -> Dbm.t
(** The universal zone narrowed by the invariants at the state's
    locations. *)

val delay_allowed : Network.t -> state -> bool
(** Whether time may elapse: no committed or urgent location, no
    enabled urgent synchronization. *)

val delay : Network.t -> state -> Dbm.t -> Dbm.t
(** Exact time elapse on a copy: up, then the invariants.  No
    extrapolation. *)

type joint = { label : label; parts : (int * int) list }
(** A joint transition: its label and the ordered participating
    (component, edge) pairs, sender first. *)

val joint_transitions : Network.t -> state -> joint list
(** All joint transitions whose data guards hold, under the committed
    restriction. *)

val fire :
  Network.t -> state -> Dbm.t -> (int * int) list -> (state * Dbm.t) option
(** One exact discrete step from a zone: participating clock guards
    under the pre-update environment, sequential updates, target
    invariants.  No delay, no abstraction.  [None] when disabled (empty
    zone or out-of-range update). *)

val initial : Network.t -> state * Dbm.t
(** The exact initial configuration (all clocks zero, narrowed by the
    invariants); no delay taken. *)

(** {1 Exact witness replay} *)

val initial_exact : Network.t -> state * Dbm.t
(** The initial configuration with exact delay closure. *)

val step_exact :
  Network.t -> state * Dbm.t -> label -> (state * Dbm.t) option
(** Advance a configuration by one labelled step with exact delay
    closure.  [None] when the label is not a real transition at the
    state — an invalid participant, the committed restriction, or a
    broadcast whose receivers leave out a component with an enabled
    receiving edge (maximality) — or when the step is disabled. *)
