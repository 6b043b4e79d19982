module Dbm = Ita_dbm.Dbm
module Bound = Ita_dbm.Bound

type clock = int
type rel = Lt | Le | Ge | Gt | Eq
type atom = { clock : clock; rel : rel; bound : Expr.iexp }
type t = { clocks : atom list; data : Expr.bexp }

let tt = { clocks = []; data = Expr.True }
let clock_rel clock rel bound = { clocks = [ { clock; rel; bound } ]; data = Expr.True }
let clock_le c v = clock_rel c Le (Expr.Int v)
let clock_ge c v = clock_rel c Ge (Expr.Int v)
let clock_gt c v = clock_rel c Gt (Expr.Int v)
let clock_eq c v = clock_rel c Eq (Expr.Int v)
let data b = { clocks = []; data = b }

let conj g1 g2 =
  {
    clocks = g1.clocks @ g2.clocks;
    data =
      (match (g1.data, g2.data) with
      | Expr.True, d | d, Expr.True -> d
      | d1, d2 -> Expr.And (d1, d2));
  }

let is_trivial g = g.clocks = [] && g.data = Expr.True
let data_holds env g = Expr.eval_bool env g.data

let apply env g z =
  let constrain_atom { clock; rel; bound } =
    let c = Expr.eval env bound in
    match rel with
    | Le -> Dbm.constrain z clock 0 (Bound.le c)
    | Lt -> Dbm.constrain z clock 0 (Bound.lt c)
    | Ge -> Dbm.constrain z 0 clock (Bound.le (-c))
    | Gt -> Dbm.constrain z 0 clock (Bound.lt (-c))
    | Eq ->
        Dbm.constrain z clock 0 (Bound.le c);
        Dbm.constrain z 0 clock (Bound.le (-c))
  in
  List.iter constrain_atom g.clocks

let sat_clocks env g v =
  let sat_atom { clock; rel; bound } =
    let c = Expr.eval env bound in
    let x = v.(clock) in
    match rel with
    | Le -> x <= c
    | Lt -> x < c
    | Ge -> x >= c
    | Gt -> x > c
    | Eq -> x = c
  in
  List.for_all sat_atom g.clocks

let max_constant ranges g x =
  let atom_k acc a =
    if a.clock <> x then acc
    else
      let lo, hi = Expr.interval ranges a.bound in
      max acc (max (abs lo) (abs hi))
  in
  List.fold_left atom_k 0 g.clocks

let pp ~clock_names ~var_names ppf g =
  let rel_s = function
    | Lt -> "<"
    | Le -> "<="
    | Ge -> ">="
    | Gt -> ">"
    | Eq -> "=="
  in
  let first = ref true in
  let sep () = if !first then first := false else Format.fprintf ppf " && " in
  let atom a =
    sep ();
    Format.fprintf ppf "%s %s %a" clock_names.(a.clock) (rel_s a.rel)
      (Expr.pp_iexp var_names) a.bound
  in
  List.iter atom g.clocks;
  if g.data <> Expr.True then begin
    sep ();
    Expr.pp_bexp var_names ppf g.data
  end;
  if !first then Format.pp_print_string ppf "true"
