(** Declarative design spaces over architecture models.

    The paper's evaluation (Section 4) compares {e architecture
    alternatives} of one system — different CPU speeds, bus baud
    rates, mappings of functionality to processors.  A {!t} declares
    such a space as a base {!Ita_core.Sysmodel.t} plus independent
    {!axis} values, each a set of labeled model transforms; the
    concrete candidates are the cartesian product of the axes, every
    candidate a fully built (and validated) system model.

    Axes are ordered; a candidate applies one choice per axis, in
    axis order, to the base model. *)

open Ita_core

type choice = { label : string; transform : Sysmodel.t -> Sysmodel.t }
type axis = { axis_name : string; choices : choice list }

val axis : string -> (string * (Sysmodel.t -> Sysmodel.t)) list -> axis
(** Arbitrary labeled transforms. @raise Invalid_argument when empty
    or when two choices share a label. *)

val mips_axis : resource:string -> float list -> axis
(** Vary a processor's speed (labels like ["RAD=22MIPS"]). *)

val kbps_axis : resource:string -> float list -> axis
(** Vary a link's baud rate (labels like ["BUS=96kbps"]). *)

val mapping_axis : scenario:string -> step:int -> string list -> axis
(** Vary the resource one scenario step is deployed on — the paper's
    "move functionality between processors" alternative. *)

val queue_bound_axis : int list -> axis
(** Vary the generated pending-counter bound. *)

type t = { space_name : string; base : Sysmodel.t; axes : axis list }

val make : name:string -> base:Sysmodel.t -> axes:axis list -> t
(** @raise Invalid_argument on duplicate axis names. *)

val size : t -> int
(** Number of candidates (product of axis widths; 1 for no axes). *)

type candidate = {
  index : int;  (** position in {!candidates} order *)
  picks : (string * string) list;  (** (axis name, choice label) *)
  sys : Sysmodel.t;
}

val candidates : t -> candidate list
(** The cartesian product, validated: a transform combination that
    produces an inconsistent model raises here, not mid-sweep.
    Enumeration order: the last axis varies fastest. *)

val label : candidate -> string
(** Human-readable pick summary, e.g. ["RAD=22MIPS BUS=96kbps"];
    ["(base)"] for the empty-axes space. *)

val cost : candidate -> float
(** Hardware cost proxy used for the Pareto frontier: the sum of
    processor MIPS plus link kbps / 8 ("MIPS-equivalents").  Crude on
    purpose — the paper's question is "can a cheaper architecture
    still meet the deadlines", and any monotone proxy of silicon +
    wiring speed ranks the alternatives for that question. *)
