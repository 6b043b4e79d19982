(** Naive reference semantics for certificate checking.

    A deliberate re-implementation of the symbolic successor relation
    from the network definition alone — plain DBM operations, no
    extrapolation, no active-clock reduction, no interning, no slicing,
    no sharding — so an independent certificate checker
    ({!Ita_cert.Cert}) shares nothing with the optimized exploration
    path beyond the model representation and plain DBM operations.

    The {!mask} describes what a query-directed slice removed, without
    exposing how the slicer decided: frozen components never move,
    removed clocks are unconstrained in every stored zone, frozen
    variables hold their initial values.  Every masked operation
    over-approximates the corresponding real projected behavior (more
    transitions, more permissive delay), which is the direction
    certificate soundness needs. *)

module Dbm = Ita_dbm.Dbm

type state = Semantics.state = { locs : int array; env : int array }
type label = Semantics.label

type mask = {
  frozen_comps : bool array;
  removed_clocks : bool array;
  frozen_vars : bool array;
}

val no_mask : Network.t -> mask
(** The trivial mask: nothing frozen, nothing removed. *)

val apply_invariants : Network.t -> mask -> state -> Dbm.t -> unit
(** Intersect with the invariants of the unmasked components, bounds
    evaluated under the state's environment. *)

val inv_zone : Network.t -> mask -> state -> Dbm.t
(** The universal zone narrowed by the unmasked invariants at the
    state's locations. *)

val delay_allowed : Network.t -> mask -> state -> bool
(** Whether time may elapse, judged over the unmasked components only
    (committed/urgent locations, enabled urgent synchronizations).
    Over-approximates the real system's delay permission. *)

val delay : Network.t -> mask -> state -> Dbm.t -> Dbm.t
(** Exact time elapse on a copy: up, then the unmasked invariants.  No
    extrapolation. *)

type joint = { label : label; parts : (int * int) list }
(** A joint transition: its label and the ordered participating
    (component, edge) pairs, sender first. *)

val joint_transitions : Network.t -> mask -> state -> joint list
(** All joint transitions of the unmasked components whose data guards
    hold, under the committed restriction judged over unmasked
    components. *)

val fire :
  Network.t -> mask -> state -> Dbm.t -> (int * int) list -> (state * Dbm.t) option
(** One exact discrete step from a zone: participating clock guards
    under the pre-update environment, sequential updates, target
    unmasked invariants.  No delay, no abstraction.  [None] when
    disabled (empty zone or out-of-range update). *)

val initial : Network.t -> mask -> state * Dbm.t
(** The exact initial configuration (all clocks zero, narrowed by the
    unmasked invariants); no delay taken. *)

(** {1 Exact witness replay (full network)} *)

val initial_exact : Network.t -> state * Dbm.t
(** The initial configuration of the full network with exact delay
    closure. *)

val real_parts : Network.t -> state -> label -> (int * int) list list
(** All real participant lists matching a claimed label at a state:
    validates participants and the committed restriction, and completes
    broadcast receiver lists with every further component that can
    receive (each edge choice a distinct completion).  Empty when the
    label is not a real transition there. *)

val step_exact :
  Network.t -> (state * Dbm.t) list -> label -> (state * Dbm.t) list
(** Advance a candidate set by one labelled step with exact delay
    closure; drops disabled candidates. *)
