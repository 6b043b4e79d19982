(* Unit and property tests for the zone substrate (lib/dbm).

   The property tests use concrete integer valuations as the oracle: a
   DBM operation is correct when membership of sampled valuations
   transforms the way the corresponding set operation dictates. *)

module Bound = Ita_dbm.Bound
module Dbm = Ita_dbm.Dbm

(* ------------------------------------------------------------------ *)
(* Bound encoding                                                      *)
(* ------------------------------------------------------------------ *)

let test_bound_order () =
  Alcotest.(check bool) "lt c < le c" true (Bound.lt_bound (Bound.lt 3) (Bound.le 3));
  Alcotest.(check bool) "le c < lt (c+1)" true
    (Bound.lt_bound (Bound.le 3) (Bound.lt 4));
  Alcotest.(check bool) "finite < inf" true
    (Bound.lt_bound (Bound.le 1_000_000_000) Bound.infinity);
  Alcotest.(check bool) "negative bounds ordered" true
    (Bound.lt_bound (Bound.le (-5)) (Bound.lt (-4)))

let test_bound_add () =
  let check_add b1 b2 (expect : Bound.t) =
    Alcotest.(check int) "add" (expect :> int) (Bound.add b1 b2 :> int)
  in
  check_add (Bound.le 2) (Bound.le 3) (Bound.le 5);
  check_add (Bound.le 2) (Bound.lt 3) (Bound.lt 5);
  check_add (Bound.lt 2) (Bound.lt 3) (Bound.lt 5);
  check_add (Bound.le (-2)) (Bound.le 3) (Bound.le 1);
  check_add Bound.infinity (Bound.le 3) Bound.infinity;
  check_add (Bound.lt 0) Bound.infinity Bound.infinity

let test_bound_negate () =
  Alcotest.(check int) "negate le" (Bound.lt (-4) :> int)
    (Bound.negate_weak (Bound.le 4) :> int);
  Alcotest.(check int) "negate lt" (Bound.le (-4) :> int)
    (Bound.negate_weak (Bound.lt 4) :> int)

let test_bound_sat () =
  Alcotest.(check bool) "3 <= 3" true (Bound.sat 3 (Bound.le 3));
  Alcotest.(check bool) "3 < 3 fails" false (Bound.sat 3 (Bound.lt 3));
  Alcotest.(check bool) "anything < inf" true (Bound.sat 999999 Bound.infinity)

(* ------------------------------------------------------------------ *)
(* Basic zone unit tests (2 clocks unless said otherwise)              *)
(* ------------------------------------------------------------------ *)

let v a b = [| 0; a; b |]

let test_zero_zone () =
  let z = Dbm.zero 2 in
  Alcotest.(check bool) "origin in zero" true (Dbm.satisfies z (v 0 0));
  Alcotest.(check bool) "not (1,0)" false (Dbm.satisfies z (v 1 0));
  Alcotest.(check bool) "non-empty" false (Dbm.is_empty z)

let test_universal_zone () =
  let z = Dbm.universal 2 in
  Alcotest.(check bool) "origin" true (Dbm.satisfies z (v 0 0));
  Alcotest.(check bool) "(7,3)" true (Dbm.satisfies z (v 7 3));
  Alcotest.(check bool) "zero subset universal" true
    (Dbm.subset (Dbm.zero 2) z);
  Alcotest.(check bool) "universal not subset zero" false
    (Dbm.subset z (Dbm.zero 2))

let test_up () =
  let z = Dbm.zero 2 in
  Dbm.up z;
  Alcotest.(check bool) "diagonal after up" true (Dbm.satisfies z (v 5 5));
  Alcotest.(check bool) "off-diagonal excluded" false (Dbm.satisfies z (v 5 4))

let test_constrain_empty () =
  let z = Dbm.zero 2 in
  Dbm.up z;
  Dbm.constrain z 1 0 (Bound.le 3);
  (* x1 <= 3 *)
  Dbm.constrain z 0 1 (Bound.le (-5));
  (* x1 >= 5: contradiction *)
  Alcotest.(check bool) "empty" true (Dbm.is_empty z)

let test_reset () =
  let z = Dbm.zero 2 in
  Dbm.up z;
  Dbm.constrain z 1 0 (Bound.le 10);
  Dbm.reset z 2 0;
  (* x2 := 0 while x1 in [0,10] *)
  Alcotest.(check bool) "(10,0) in" true (Dbm.satisfies z (v 10 0));
  Alcotest.(check bool) "(10,1) out" false (Dbm.satisfies z (v 10 1));
  Dbm.up z;
  Alcotest.(check bool) "(12,2) after up" true (Dbm.satisfies z (v 12 2));
  Alcotest.(check bool) "x1 - x2 <= 10 kept" false (Dbm.satisfies z (v 13 2))

let test_reset_to_value () =
  let z = Dbm.zero 2 in
  Dbm.up z;
  Dbm.reset z 1 7;
  Alcotest.(check bool) "(7, d)" true (Dbm.satisfies z (v 7 3));
  Alcotest.(check bool) "(6, d)" false (Dbm.satisfies z (v 6 3))

let test_free () =
  let z = Dbm.zero 2 in
  Dbm.free z 1;
  Alcotest.(check bool) "(42, 0)" true (Dbm.satisfies z (v 42 0));
  Alcotest.(check bool) "x2 still 0" false (Dbm.satisfies z (v 42 1))

let test_intersect () =
  let z1 = Dbm.zero 2 in
  Dbm.up z1;
  Dbm.constrain z1 1 0 (Bound.le 5);
  let z2 = Dbm.zero 2 in
  Dbm.up z2;
  Dbm.constrain z2 0 1 (Bound.le (-3));
  Dbm.intersect z1 z2;
  Alcotest.(check bool) "(4,4)" true (Dbm.satisfies z1 (v 4 4));
  Alcotest.(check bool) "(2,2)" false (Dbm.satisfies z1 (v 2 2));
  Alcotest.(check bool) "(6,6)" false (Dbm.satisfies z1 (v 6 6))

let test_sup_inf () =
  let z = Dbm.zero 2 in
  Dbm.up z;
  Dbm.constrain z 1 0 (Bound.le 5);
  Alcotest.(check int) "sup x1" (Bound.le 5 :> int) (Dbm.sup z 1 :> int);
  Alcotest.(check int) "sup x2 = x1's by diagonal" (Bound.le 5 :> int)
    (Dbm.sup z 2 :> int);
  Dbm.constrain z 0 1 (Bound.lt (-2));
  Alcotest.(check int) "inf x1" (Bound.lt (-2) :> int) (Dbm.inf z 1 :> int)

let test_extrapolate () =
  let z = Dbm.zero 2 in
  Dbm.up z;
  Dbm.constrain z 0 1 (Bound.le (-100));
  (* x1 >= 100, but max constant 10 *)
  Dbm.constrain z 1 0 (Bound.le 200);
  let z' = Dbm.copy z in
  Dbm.extrapolate z' [| 0; 10; 10 |];
  Alcotest.(check bool) "extrapolation grows the zone" true (Dbm.subset z z');
  (* beyond the constant, bounds are gone *)
  Alcotest.(check bool) "upper bound dropped" true
    (Bound.is_infinity (Dbm.sup z' 1));
  Alcotest.(check bool) "still excludes small values" false
    (Dbm.satisfies z' (v 5 5))

let test_extrapolate_lu () =
  (* both clocks sit above all LU bounds: every difference constraint
     is blurred and row 0 is refined down to the strict U bound *)
  let z = Dbm.zero 2 in
  Dbm.up z;
  Dbm.constrain z 0 1 (Bound.le (-10));
  (* the delay closure keeps x1 = x2, both >= 10 *)
  let z' = Dbm.copy z in
  Dbm.extrapolate_lu z' [| 0; 3; 3 |] [| 0; 3; 3 |];
  Alcotest.(check bool) "superset of original" true (Dbm.subset z z');
  Alcotest.(check bool) "x1 > 3, x2 > 3 kept" true
    (Dbm.satisfies z' (v 4 5) && not (Dbm.satisfies z' (v 3 3)));
  Alcotest.(check bool) "diagonal blurred: x2 < x1 now allowed" true
    (Dbm.satisfies z' (v 9 4))

let test_extrapolate_lu_keeps_low_bounds () =
  (* constraints at or below the bounds survive exactly *)
  let z = Dbm.zero 2 in
  Dbm.up z;
  Dbm.constrain z 1 0 (Bound.le 5);
  Dbm.constrain z 0 1 (Bound.le (-2));
  let z' = Dbm.copy z in
  Dbm.extrapolate_lu z' [| 0; 5; 5 |] [| 0; 5; 5 |];
  Alcotest.(check bool) "unchanged below the bounds" true (Dbm.equal z z')

(* le_lu: a◁LU simulation subsumption on unextrapolated zones.  One
   clock, L(x1) = 0..8, U(x1) = 5: a zone reaching below U must be
   matched pointwise, a zone entirely above U is matched by anything
   above it. *)
let test_le_lu_one_clock () =
  let low lo =
    let z = Dbm.universal 1 in
    Dbm.constrain z 0 1 (Bound.le (-lo));
    z
  in
  let l = [| 0; 8 |] and u = [| 0; 5 |] in
  (* v1 = 0 ∈ Z needs a witness w ≤ 0 in Z' = {v1 >= 10}: none *)
  Alcotest.(check bool) "universal not below {>=10}" false
    (Dbm.le_lu l u (low 0) (low 10));
  (* every v ∈ {v1 >= 6} is above U(5), so any larger witness works *)
  Alcotest.(check bool) "{>=6} below {>=10}" true
    (Dbm.le_lu l u (low 6) (low 10));
  (* ... but not below U: 5 ∈ {v1 >= 5} has no witness ≤ 5 *)
  Alcotest.(check bool) "{>=5} not below {>=10}" false
    (Dbm.le_lu l u (low 5) (low 10));
  (* upper bounds only matter up to L: a member above its witness needs
     the witness above L, so {<=9} ⊑ {<=8} holds for small L but not
     once L reaches the witness's cap *)
  let high hi =
    let z = Dbm.universal 1 in
    Dbm.constrain z 1 0 (Bound.le hi);
    z
  in
  Alcotest.(check bool) "{<=9} below {<=8} when L = 3" true
    (Dbm.le_lu [| 0; 3 |] u (high 9) (high 8));
  Alcotest.(check bool) "{<=9} not below {<=8} when L = 8" false
    (Dbm.le_lu [| 0; 8 |] u (high 9) (high 8))

let test_le_lu_empty () =
  let l = [| 0; 3; 3; 3 |] and u = [| 0; 3; 3; 3 |] in
  let empty = Dbm.zero 3 in
  Dbm.constrain empty 0 1 (Bound.le (-1));
  let z = Dbm.zero 3 in
  Alcotest.(check bool) "empty below anything" true (Dbm.le_lu l u empty z);
  Alcotest.(check bool) "nothing non-empty below empty" false
    (Dbm.le_lu l u z empty);
  Alcotest.(check bool) "empty below empty" true
    (Dbm.le_lu l u empty (Dbm.copy empty))

let test_extrapolate_idempotent () =
  let z = Dbm.zero 2 in
  Dbm.up z;
  Dbm.constrain z 1 0 (Bound.le 200);
  let k = [| 0; 10; 10 |] in
  Dbm.extrapolate z k;
  let z' = Dbm.copy z in
  Dbm.extrapolate z' k;
  Alcotest.(check bool) "idempotent" true (Dbm.equal z z')

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

(* A random zone is built by a random operation sequence from the
   delay-closure of the origin; sampled valuations come from a small
   box so that membership is non-trivial. *)

type op =
  | Up
  | Constrain of int * int * Bound.t
  | Reset of int * int
  | Free of int

let n_clocks = 3

let gen_bound =
  QCheck2.Gen.(
    let* c = int_range (-8) 8 in
    let* strict = bool in
    return (if strict then Bound.lt c else Bound.le c))

let gen_op =
  QCheck2.Gen.(
    let* choice = int_range 0 3 in
    match choice with
    | 0 -> return Up
    | 1 ->
        let* i = int_range 0 n_clocks in
        let* j = int_range 0 n_clocks in
        let* b = gen_bound in
        return (if i = j then Up else Constrain (i, j, b))
    | 2 ->
        let* i = int_range 1 n_clocks in
        let* c = int_range 0 5 in
        return (Reset (i, c))
    | _ ->
        let* i = int_range 1 n_clocks in
        return (Free i))

let apply_op z = function
  | Up -> Dbm.up z
  | Constrain (i, j, b) -> Dbm.constrain z i j b
  | Reset (i, c) -> Dbm.reset z i c
  | Free i -> Dbm.free z i

let gen_zone =
  QCheck2.Gen.(
    let* ops = list_size (int_range 0 8) gen_op in
    return
      (let z = Dbm.zero n_clocks in
       Dbm.up z;
       List.iter (apply_op z) ops;
       z))

let gen_valuation =
  QCheck2.Gen.(
    let* xs = array_size (return n_clocks) (int_range 0 12) in
    return (Array.append [| 0 |] xs))

let prop_up_membership =
  QCheck2.Test.make ~count:500 ~name:"up: delayed points stay members"
    QCheck2.Gen.(tup3 gen_zone gen_valuation (int_range 0 10))
    (fun (z, val_, d) ->
      QCheck2.assume (Dbm.satisfies z val_);
      let z' = Dbm.copy z in
      Dbm.up z';
      match Dbm.delay_ordered z' val_ d with
      | Some _ -> true
      | None -> false)

let prop_constrain_membership =
  QCheck2.Test.make ~count:500
    ~name:"constrain: membership = old membership && atom"
    QCheck2.Gen.(tup3 gen_zone gen_valuation (tup3 (int_range 0 n_clocks) (int_range 0 n_clocks) gen_bound))
    (fun (z, val_, (i, j, b)) ->
      QCheck2.assume (i <> j);
      let z' = Dbm.copy z in
      Dbm.constrain z' i j b;
      let expected =
        Dbm.satisfies z val_ && Bound.sat (val_.(i) - val_.(j)) b
      in
      Dbm.satisfies z' val_ = expected)

let prop_reset_membership =
  QCheck2.Test.make ~count:500 ~name:"reset: image membership"
    QCheck2.Gen.(tup3 gen_zone gen_valuation (tup2 (int_range 1 n_clocks) (int_range 0 5)))
    (fun (z, val_, (i, c)) ->
      QCheck2.assume (Dbm.satisfies z val_);
      let z' = Dbm.copy z in
      Dbm.reset z' i c;
      let v' = Array.copy val_ in
      v'.(i) <- c;
      Dbm.satisfies z' v')

let prop_intersect_membership =
  QCheck2.Test.make ~count:500 ~name:"intersect: membership is conjunction"
    QCheck2.Gen.(tup3 gen_zone gen_zone gen_valuation)
    (fun (z1, z2, val_) ->
      let z = Dbm.copy z1 in
      Dbm.intersect z z2;
      Dbm.satisfies z val_ = (Dbm.satisfies z1 val_ && Dbm.satisfies z2 val_))

let prop_subset_sound =
  QCheck2.Test.make ~count:500 ~name:"subset: members transfer"
    QCheck2.Gen.(tup3 gen_zone gen_zone gen_valuation)
    (fun (z1, z2, val_) ->
      if Dbm.subset z1 z2 && Dbm.satisfies z1 val_ then Dbm.satisfies z2 val_
      else true)

let prop_extrapolate_widens =
  QCheck2.Test.make ~count:500 ~name:"extrapolate: superset of original"
    gen_zone
    (fun z ->
      let z' = Dbm.copy z in
      Dbm.extrapolate z' [| 0; 8; 8; 8 |];
      Dbm.subset z z')

let gen_lu_bounds =
  QCheck2.Gen.(
    array_size (return (n_clocks + 1)) (int_range 0 8)
    >|= fun a ->
    a.(0) <- 0;
    a)

let prop_extrapolate_lu_widens =
  QCheck2.Test.make ~count:500 ~name:"extrapolate_lu: superset of original"
    QCheck2.Gen.(tup3 gen_zone gen_lu_bounds gen_lu_bounds)
    (fun (z, l, u) ->
      let z' = Dbm.copy z in
      Dbm.extrapolate_lu z' l u;
      Dbm.subset z z')

let prop_extrapolate_lu_coarser_than_m =
  QCheck2.Test.make ~count:500
    ~name:"extrapolate_lu with L = U = k: superset of classical extrapolate"
    QCheck2.Gen.(tup2 gen_zone gen_lu_bounds)
    (fun (z, k) ->
      let zm = Dbm.copy z and zlu = Dbm.copy z in
      Dbm.extrapolate zm k;
      Dbm.extrapolate_lu zlu k k;
      Dbm.subset zm zlu)

(* ------------------------------------------------------------------ *)
(* le_lu properties                                                    *)
(* ------------------------------------------------------------------ *)

let prop_le_lu_reflexive =
  QCheck2.Test.make ~count:500 ~name:"le_lu: reflexive"
    QCheck2.Gen.(tup3 gen_zone gen_lu_bounds gen_lu_bounds)
    (fun (z, l, u) -> Dbm.le_lu l u z z)

let prop_le_lu_transitive =
  QCheck2.Test.make ~count:2000 ~name:"le_lu: transitive"
    QCheck2.Gen.(tup3 (tup3 gen_zone gen_zone gen_zone) gen_lu_bounds gen_lu_bounds)
    (fun ((z1, z2, z3), l, u) ->
      if Dbm.le_lu l u z1 z2 && Dbm.le_lu l u z2 z3 then Dbm.le_lu l u z1 z3
      else true)

let prop_le_lu_coarser_than_subset =
  QCheck2.Test.make ~count:1000 ~name:"le_lu: implied by plain inclusion"
    QCheck2.Gen.(tup3 (tup2 gen_zone gen_zone) gen_lu_bounds gen_lu_bounds)
    (fun ((z, z'), l, u) ->
      if Dbm.subset z z' then Dbm.le_lu l u z z' else true)

(* The theorem that makes a◁LU subsumption explore no more states than
   Extra+LU (Herbreteau et al.): Extra+LU(Z) ⊆ a◁LU(Z), hence
   extrapolation-based inclusion implies simulation-based inclusion on
   the unextrapolated zones.  Never assert the reverse direction — the
   whole point is that le_lu is strictly coarser. *)
let prop_le_lu_coarser_than_extrapolation =
  QCheck2.Test.make ~count:1000
    ~name:"le_lu: implied by subset after extrapolate_lu"
    QCheck2.Gen.(tup3 (tup2 gen_zone gen_zone) gen_lu_bounds gen_lu_bounds)
    (fun ((z, z'), l, u) ->
      let ze = Dbm.copy z and ze' = Dbm.copy z' in
      Dbm.extrapolate_lu ze l u;
      Dbm.extrapolate_lu ze' l u;
      if Dbm.subset ze ze' then Dbm.le_lu l u z z' else true)

(* Language-inclusion soundness on concrete walks: when [le_lu l u z z']
   holds, every guard/reset/delay walk a member of [z] can do concretely
   — guards diagonal-free with lower constants ≤ L and upper constants
   ≤ U, as the L/U analysis guarantees for the checker — is feasible
   from [z'] symbolically (delays time-abstracted by [up], exactly how
   the checker uses zones). *)
type wstep =
  | Wdelay of int
  | Wlow of int * int * bool  (* clock, constant, strict *)
  | Whigh of int * int * bool
  | Wreset of int

let gen_walk l u =
  QCheck2.Gen.(
    list_size (int_range 0 6)
      (let* choice = int_range 0 3 in
       match choice with
       | 0 ->
           let* d = int_range 0 6 in
           return (Wdelay d)
       | 1 ->
           let* i = int_range 1 n_clocks in
           let* strict = bool in
           let* k = int_range 0 (max 0 l.(i)) in
           return (Wlow (i, k, strict))
       | 2 ->
           let* i = int_range 1 n_clocks in
           let* strict = bool in
           let* k = int_range 0 (max 0 u.(i)) in
           return (Whigh (i, k, strict))
       | _ ->
           let* i = int_range 1 n_clocks in
           return (Wreset i)))

let concrete_walk v steps =
  let v = Array.copy v in
  List.for_all
    (function
      | Wdelay d ->
          for i = 1 to n_clocks do
            v.(i) <- v.(i) + d
          done;
          true
      | Wlow (i, k, strict) -> if strict then v.(i) > k else v.(i) >= k
      | Whigh (i, k, strict) -> if strict then v.(i) < k else v.(i) <= k
      | Wreset i ->
          v.(i) <- 0;
          true)
    steps

let symbolic_walk z steps =
  let z = Dbm.copy z in
  List.iter
    (function
      | Wdelay _ -> Dbm.up z
      | Wlow (i, k, strict) ->
          Dbm.constrain z 0 i (if strict then Bound.lt (-k) else Bound.le (-k))
      | Whigh (i, k, strict) ->
          Dbm.constrain z i 0 (if strict then Bound.lt k else Bound.le k)
      | Wreset i -> Dbm.reset z i 0)
    steps;
  not (Dbm.is_empty z)

let gen_lu_walk =
  QCheck2.Gen.(
    gen_lu_bounds >>= fun l ->
    gen_lu_bounds >>= fun u ->
    gen_walk l u >|= fun w -> (l, u, w))

let prop_le_lu_language_inclusion =
  QCheck2.Test.make ~count:2000
    ~name:"le_lu: concrete walks of members stay feasible in the simulator"
    QCheck2.Gen.(tup3 gen_zone gen_zone (tup2 gen_valuation gen_lu_walk))
    (fun (z, z', (val_, (l, u, steps))) ->
      if
        Dbm.le_lu l u z z'
        && Dbm.satisfies z val_
        && concrete_walk val_ steps
      then symbolic_walk z' steps
      else true)

let prop_extrapolate_lu_idempotent =
  QCheck2.Test.make ~count:500 ~name:"extrapolate_lu: idempotent"
    QCheck2.Gen.(tup3 gen_zone gen_lu_bounds gen_lu_bounds)
    (fun (z, l, u) ->
      Dbm.extrapolate_lu z l u;
      let z' = Dbm.copy z in
      Dbm.extrapolate_lu z' l u;
      Dbm.equal z z')

let prop_sup_bounds_members =
  QCheck2.Test.make ~count:500 ~name:"sup bounds all members"
    QCheck2.Gen.(tup2 gen_zone gen_valuation)
    (fun (z, val_) ->
      QCheck2.assume (Dbm.satisfies z val_);
      let ok = ref true in
      for i = 1 to n_clocks do
        if not (Bound.sat val_.(i) (Dbm.sup z i)) then ok := false
      done;
      !ok)

let prop_canonical_triangle =
  QCheck2.Test.make ~count:500
    ~name:"operations preserve canonical (triangle) form"
    QCheck2.Gen.(list_size (int_range 0 12) gen_op)
    (fun ops ->
      let z = Dbm.zero n_clocks in
      Dbm.up z;
      List.iter (apply_op z) ops;
      Dbm.is_empty z
      ||
      let n = n_clocks + 1 in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if
              Bound.lt_bound
                (Bound.add (Dbm.get z i k) (Dbm.get z k j))
                (Dbm.get z i j)
            then ok := false
          done
        done
      done;
      !ok)

let prop_equal_hash =
  QCheck2.Test.make ~count:500 ~name:"equal zones hash equally"
    QCheck2.Gen.(tup2 gen_zone gen_zone)
    (fun (z1, z2) -> (not (Dbm.equal z1 z2)) || Dbm.hash z1 = Dbm.hash z2)

(* ------------------------------------------------------------------ *)
(* Kernel differential at the case study's dimensions                  *)
(* ------------------------------------------------------------------ *)

(* Reference kernels: the DBM loops as they read before the bound
   arithmetic was inlined into them, over a plain array of bounds and
   [Bound]'s public functions only.  A zone is [(dim, entries)], the
   row-major layout [Dbm.to_encoded] returns.  The engine's explored
   counts and the certificates' bytes depend on these loops' exact
   output, not only on the sets they denote, so the property below
   compares entry for entry. *)
module Ref = struct
  let bound e : Bound.t =
    if e = max_int then Bound.infinity
    else if e land 1 = 1 then Bound.le (e asr 1)
    else Bound.lt (e asr 1)

  let of_encoded (n, m) = (n, Array.map bound m)
  let to_encoded (n, m) = (n, Array.map (fun (b : Bound.t) -> (b :> int)) m)
  let get (n, m) i j = m.((i * n) + j)
  let set (n, m) i j b = m.((i * n) + j) <- b
  let is_empty (_, m) = Bound.lt_bound m.(0) Bound.zero_le
  let mark_empty (_, m) = m.(0) <- Bound.lt 0

  let close ((n, _) as z) =
    try
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          let ik = get z i k in
          if not (Bound.is_infinity ik) then
            for j = 0 to n - 1 do
              let v = Bound.add ik (get z k j) in
              if Bound.lt_bound v (get z i j) then set z i j v
            done
        done;
        for i = 0 to n - 1 do
          if Bound.lt_bound (get z i i) Bound.zero_le then raise Exit
        done
      done
    with Exit -> mark_empty z

  let up ((n, _) as z) =
    if not (is_empty z) then
      for i = 1 to n - 1 do
        set z i 0 Bound.infinity
      done

  let constrain ((n, _) as z) i j b =
    if not (is_empty z) then
      if Bound.lt_bound b (get z i j) then
        if Bound.lt_bound (Bound.add b (get z j i)) Bound.zero_le then
          mark_empty z
        else begin
          set z i j b;
          for p = 0 to n - 1 do
            let pi = get z p i in
            if not (Bound.is_infinity pi) then begin
              let via = Bound.add pi b in
              for q = 0 to n - 1 do
                let cand = Bound.add via (get z j q) in
                if Bound.lt_bound cand (get z p q) then set z p q cand
              done
            end
          done
        end

  let reset ((n, _) as z) i v =
    if not (is_empty z) then begin
      let bv = Bound.le v and bnv = Bound.le (-v) in
      for j = 0 to n - 1 do
        if j <> i then begin
          set z i j (Bound.add bv (get z 0 j));
          set z j i (Bound.add (get z j 0) bnv)
        end
      done;
      set z i i Bound.zero_le
    end

  let free ((n, _) as z) i =
    if not (is_empty z) then begin
      for j = 0 to n - 1 do
        if j <> i then begin
          set z i j Bound.infinity;
          set z j i (get z j 0)
        end
      done;
      set z i 0 Bound.infinity;
      set z 0 i Bound.zero_le
    end

  let extrapolate ((n, _) as z) k =
    if not (is_empty z) then begin
      let changed = ref false in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            let b = get z i j in
            if not (Bound.is_infinity b) then
              if Bound.lt_bound (Bound.le k.(i)) b then begin
                set z i j Bound.infinity;
                changed := true
              end
              else if Bound.lt_bound b (Bound.lt (-k.(j))) then begin
                set z i j (Bound.lt (-k.(j)));
                changed := true
              end
          end
        done
      done;
      if !changed then close z
    end

  let extrapolate_lu ((n, m) as z) l u =
    if not (is_empty z) then begin
      let row0 = Array.sub m 0 n in
      let above_l j = Bound.lt_bound row0.(j) (Bound.lt (-l.(j))) in
      let above_u j = Bound.lt_bound row0.(j) (Bound.lt (-u.(j))) in
      let changed = ref false in
      for i = 1 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            let b = get z i j in
            if
              (not (Bound.is_infinity b))
              && (Bound.lt_bound (Bound.le l.(i)) b
                 || above_l i
                 || (j > 0 && above_u j))
            then begin
              set z i j Bound.infinity;
              changed := true
            end
          end
        done
      done;
      for j = 1 to n - 1 do
        if above_u j then begin
          set z 0 j (Bound.lt (-u.(j)));
          changed := true
        end
      done;
      if !changed then close z
    end

  let le_lu l u ((n, _) as z) z' =
    is_empty z
    || ((not (is_empty z'))
       &&
       let feasible b = not (Bound.lt_bound b Bound.zero_le) in
       try
         for x = 0 to n - 1 do
           for y = 0 to n - 1 do
             if x <> y then begin
               let zp = get z' x y in
               if not (Bound.is_infinity zp) then begin
                 let nb' = Bound.negate_weak zp in
                 if feasible (Bound.add nb' (get z x y)) then begin
                   let tb =
                     Bound.le (Stdlib.min u.(y) (l.(x) - Bound.value zp))
                   in
                   if
                     feasible (Bound.add tb (get z 0 y))
                     && feasible
                          (Bound.add nb' (Bound.add (get z x 0) (get z 0 y)))
                     && feasible
                          (Bound.add (get z x y) (Bound.add tb (get z 0 x)))
                   then raise Exit
                 end
               end
             end
           done
         done;
         true
       with Exit -> false)
end

(* One case: a clock count of 1 to 11 (the radionav networks have 10
   and 11), two zones [z] and [z'] built by op sequences over that
   many clocks with constants around the L/U values, every kernel's
   arguments ([u] doubles as [extrapolate]'s [k]), and a raw unclosed
   matrix for [close]. *)
type kernel_case = {
  nc : int;
  ops : op list;  (* [z'] from the delayed origin *)
  more : op list;  (* [z] from [z'] *)
  atom : int * int * Bound.t;
  clock : int;
  value : int;
  l : int array;
  u : int array;
  raw : int array;
}

let gen_kernel_case =
  QCheck2.Gen.(
    let* nc = int_range 1 11 in
    let bound lo hi =
      let* c = int_range lo hi in
      let* strict = bool in
      return (if strict then Bound.lt c else Bound.le c)
    in
    let op =
      let* choice = int_range 0 3 in
      match choice with
      | 0 -> return Up
      | 1 ->
          let* i = int_range 0 nc in
          let* j = int_range 0 nc in
          let* b = bound (-14) 14 in
          return (if i = j then Up else Constrain (i, j, b))
      | 2 ->
          let* i = int_range 1 nc in
          let* c = int_range 0 6 in
          return (Reset (i, c))
      | _ ->
          let* i = int_range 1 nc in
          return (Free i)
    in
    (* the certificate's L/U vectors carry -1 for removed clocks *)
    let lu =
      array_size (return (nc + 1)) (int_range (-1) 12) >|= fun a ->
      a.(0) <- 0;
      a
    in
    let* ops = list_size (int_range 0 (3 * nc)) op in
    let* more = list_size (int_range 0 3) op in
    let* i = int_range 0 nc in
    let* j = int_range 0 nc in
    let j = if i = j then (j + 1) mod (nc + 1) else j in
    let* b = bound (-14) 14 in
    let* clock = int_range 1 nc in
    let* value = int_range 0 6 in
    let* l = lu in
    let* u = lu in
    let entry =
      let* inf = int_range 0 3 in
      if inf = 0 then return Bound.infinity else bound (-3) 20
    in
    let* raw = array_size (return ((nc + 1) * (nc + 1))) entry in
    let* diag = bool in
    let raw = Array.map (fun b -> (b : Bound.t :> int)) raw in
    if diag then
      for k = 0 to nc do
        raw.((k * (nc + 1)) + k) <- (Bound.zero_le :> int)
      done;
    return { nc; ops; more; atom = (i, j, b); clock; value; l; u; raw })

let print_kernel_case c =
  let ints a = String.concat "; " (Array.to_list (Array.map string_of_int a)) in
  let i, j, b = c.atom in
  Printf.sprintf "clocks %d, atom (%d, %d, %d), reset x%d := %d, l [%s], u [%s]"
    c.nc i j (b :> int) c.clock c.value (ints c.l) (ints c.u)

let prop_kernels_match_reference =
  QCheck2.Test.make ~count:1000 ~print:print_kernel_case
    ~name:"kernels: entry for entry the reference loops, 1-11 clocks"
    gen_kernel_case
    (fun c ->
      (* an op that would empty the zone is skipped: empty inputs are
         trivial for every kernel *)
      let build z ops =
        List.fold_left
          (fun z op ->
            let z' = Dbm.copy z in
            apply_op z' op;
            if Dbm.is_empty z' then z else z')
          z ops
      in
      let z0 = Dbm.zero c.nc in
      Dbm.up z0;
      let z' = build z0 c.ops in
      let z = build z' c.more in
      let same name got r =
        let ok =
          if Ref.is_empty r || Dbm.is_empty got then
            Ref.is_empty r && Dbm.is_empty got
          else Dbm.to_encoded got = Ref.to_encoded r
        in
        if not ok then QCheck2.Test.fail_reportf "%s differs" name
      in
      let check name dbm_op ref_op =
        let got = Dbm.copy z in
        dbm_op got;
        let r = Ref.of_encoded (Dbm.to_encoded z) in
        ref_op r;
        same name got r
      in
      let n = c.nc + 1 in
      let r = (n, Array.map Ref.bound c.raw) in
      Ref.close r;
      same "close" (Dbm.of_encoded n c.raw) r;
      let i, j, b = c.atom in
      check "constrain" (fun z -> Dbm.constrain z i j b) (fun r ->
          Ref.constrain r i j b);
      check "reset"
        (fun z -> Dbm.reset z c.clock c.value)
        (fun r -> Ref.reset r c.clock c.value);
      check "free" (fun z -> Dbm.free z c.clock) (fun r -> Ref.free r c.clock);
      check "up" Dbm.up Ref.up;
      check "extrapolate" (fun z -> Dbm.extrapolate z c.u) (fun r ->
          Ref.extrapolate r c.u);
      check "extrapolate_lu"
        (fun z -> Dbm.extrapolate_lu z c.l c.u)
        (fun r -> Ref.extrapolate_lu r c.l c.u);
      let enc z = Ref.of_encoded (Dbm.to_encoded z) in
      List.iter
        (fun (name, a, b) ->
          if Dbm.le_lu c.l c.u a b <> Ref.le_lu c.l c.u (enc a) (enc b) then
            QCheck2.Test.fail_reportf "le_lu differs on %s" name)
        [ ("(z, z')", z, z'); ("(z', z)", z', z) ];
      true)

(* Rows: a kernel case's two zones over 1-11 clocks, with the clocks
   outside a random live set reset to 0 in both, as active-clock
   reduction leaves the zones of one discrete state.  [z] is [z'] after
   a few more operations, unguarded, so it is sometimes empty; the live
   set is sometimes empty too. *)
let prop_rows_match_zones =
  QCheck2.Test.make ~count:1000
    ~print:(fun (c, bits) ->
      Printf.sprintf "%s, live bits %d" (print_kernel_case c) bits)
    ~name:"rows: decode entry for entry, ordered as subset, 1-11 clocks"
    QCheck2.Gen.(pair gen_kernel_case (int_bound 2047))
    (fun (c, bits) ->
      let is_live x = bits land (1 lsl (x - 1)) <> 0 in
      let live =
        Array.of_list (List.filter is_live (List.init c.nc (fun i -> i + 1)))
      in
      let pin z =
        for x = 1 to c.nc do
          if not (is_live x) then Dbm.reset z x 0
        done;
        z
      in
      let z' =
        List.fold_left
          (fun z op ->
            let z' = Dbm.copy z in
            apply_op z' op;
            if Dbm.is_empty z' then z else z')
          (let z0 = Dbm.zero c.nc in
           Dbm.up z0;
           z0)
          c.ops
      in
      let z = Dbm.copy z' in
      List.iter (apply_op z) c.more;
      let z = pin z and z' = pin z' in
      let lossless name w =
        let row = Dbm.to_row w live in
        let back = Dbm.of_row c.nc live row in
        let ok =
          row.(0) = 0
          &&
          if Dbm.is_empty w then Dbm.is_empty back
          else Dbm.to_encoded back = Dbm.to_encoded w
        in
        if not ok then QCheck2.Test.fail_reportf "%s does not decode back" name
      in
      lossless "z" z;
      lossless "z'" z';
      let expected a b =
        match (Dbm.subset a b, Dbm.subset b a) with
        | true, true -> Dbm.Same
        | true, false -> Dbm.Below
        | false, true -> Dbm.Above
        | false, false -> Dbm.Apart
      in
      List.iter
        (fun (name, a, b) ->
          if
            Dbm.row_compare (Dbm.to_row a live) (Dbm.to_row b live)
            <> expected a b
          then QCheck2.Test.fail_reportf "row order differs from subset on %s" name)
        [ ("(z, z')", z, z'); ("(z', z)", z', z); ("(z, z)", z, z) ];
      true)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_up_membership;
        prop_constrain_membership;
        prop_reset_membership;
        prop_intersect_membership;
        prop_subset_sound;
        prop_extrapolate_widens;
        prop_extrapolate_lu_widens;
        prop_extrapolate_lu_coarser_than_m;
        prop_le_lu_reflexive;
        prop_le_lu_transitive;
        prop_le_lu_coarser_than_subset;
        prop_le_lu_coarser_than_extrapolation;
        prop_le_lu_language_inclusion;
        prop_extrapolate_lu_idempotent;
        prop_sup_bounds_members;
        prop_canonical_triangle;
        prop_equal_hash;
        prop_kernels_match_reference;
        prop_rows_match_zones;
      ]
  in
  Alcotest.run "dbm"
    [
      ( "bound",
        [
          Alcotest.test_case "order" `Quick test_bound_order;
          Alcotest.test_case "add" `Quick test_bound_add;
          Alcotest.test_case "negate" `Quick test_bound_negate;
          Alcotest.test_case "sat" `Quick test_bound_sat;
        ] );
      ( "zone",
        [
          Alcotest.test_case "zero" `Quick test_zero_zone;
          Alcotest.test_case "universal" `Quick test_universal_zone;
          Alcotest.test_case "up" `Quick test_up;
          Alcotest.test_case "constrain to empty" `Quick test_constrain_empty;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "reset to value" `Quick test_reset_to_value;
          Alcotest.test_case "free" `Quick test_free;
          Alcotest.test_case "intersect" `Quick test_intersect;
          Alcotest.test_case "sup/inf" `Quick test_sup_inf;
          Alcotest.test_case "extrapolate" `Quick test_extrapolate;
          Alcotest.test_case "extrapolate_lu" `Quick test_extrapolate_lu;
          Alcotest.test_case "extrapolate_lu below bounds" `Quick
            test_extrapolate_lu_keeps_low_bounds;
          Alcotest.test_case "le_lu one clock" `Quick test_le_lu_one_clock;
          Alcotest.test_case "le_lu empty zones" `Quick test_le_lu_empty;
          Alcotest.test_case "extrapolate idempotent" `Quick
            test_extrapolate_idempotent;
        ] );
      ("properties", qsuite);
    ]
