(** Edge guards and location invariants: a conjunction of diagonal-free
    clock constraints [x ~ e] (the right-hand side may mention integer
    variables, as in the paper's preemptive-scheduler invariant
    [x <= D]) and a data predicate over integer variables.

    Diagonal constraints ([x - y ~ c]) are deliberately excluded: the
    paper's models never need them and their absence keeps classical
    maximal-constant extrapolation sound. *)

type clock = int

type rel = Lt | Le | Ge | Gt | Eq

type atom = { clock : clock; rel : rel; bound : Expr.iexp }

type t = { clocks : atom list; data : Expr.bexp }

val tt : t
(** The trivially true guard. *)

val clock_rel : clock -> rel -> Expr.iexp -> t
val clock_le : clock -> int -> t
val clock_ge : clock -> int -> t
val clock_gt : clock -> int -> t
val clock_eq : clock -> int -> t
val data : Expr.bexp -> t
val conj : t -> t -> t

val is_trivial : t -> bool

val data_holds : int array -> t -> bool
(** Evaluate only the data part. *)

val apply : int array -> t -> Ita_dbm.Dbm.t -> unit
(** [apply env g z] intersects [z] with the clock constraints of [g],
    with bounds evaluated under [env].  Does not test the data part. *)

val sat_clocks : int array -> t -> int array -> bool
(** [sat_clocks env g v] tests the clock part against the concrete
    clock valuation [v] (testing / simulation oracle). *)

val max_constant : (int * int) array -> t -> clock -> int
(** [max_constant ranges g x] is the largest absolute constant that the
    clock atoms of [g] can compare [x] against, given variable ranges;
    [0] when [x] is unconstrained.  Feeds extrapolation. *)

val pp : clock_names:string array -> var_names:string array ->
  Format.formatter -> t -> unit
