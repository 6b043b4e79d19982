(** Edge updates: a sequence of clock resets and integer-variable
    assignments, applied left to right (UPPAAL's sequential update
    semantics, so [x = 0, D = D + AV] reads the pre-assignment [D]). *)

type assign =
  | Reset_clock of Guard.clock * Expr.iexp
      (** [Reset_clock (x, e)]: the clock is set to the (non-negative)
          current value of [e]. *)
  | Set_var of Expr.var * Expr.iexp

type t = assign list

exception Out_of_range of { var : Expr.var; value : int }
(** Raised when an assignment leaves a variable's declared range —
    a modeling error, mirroring UPPAAL's bounded-integer semantics. *)

val none : t
val reset : Guard.clock -> t
val set : Expr.var -> Expr.iexp -> t
val incr : Expr.var -> t
val decr : Expr.var -> t
val seq : t list -> t

val apply :
  ranges:(int * int) array -> int array -> Ita_dbm.Dbm.t -> t -> unit
(** [apply ~ranges env z u] mutates [env] and [z] in place.  Raises
    {!Out_of_range} when a variable leaves its range. *)

val apply_env : ranges:(int * int) array -> int array -> t -> unit
(** Variable assignments only (used by the checker's delay-free
    enabledness tests and by the simulator). *)

val pp : clock_names:string array -> var_names:string array ->
  Format.formatter -> t -> unit
