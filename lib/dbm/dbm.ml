(* The bound encoding lives in this unit together with every loop that
   combines encoded bounds.  Dune's default (dev) profile compiles each
   module with [-opaque], so a [Bound] defined in a module of its own
   turned every [add]/[lt_bound] in the O(n^3) closure into a real
   cross-module call; here the [[@inline]] helpers below are inlined
   into the loops under any profile. *)
module Bound = struct
  type t = int

  (* Encoding: (c, <=) as [2c + 1], (c, <) as [2c], +oo as [max_int].
     [max_int] is odd, so it must be special-cased before decoding, but
     the integer order on encodings coincides with constraint strength,
     which makes [min]/[compare] free. *)

  let infinity = max_int
  let[@inline] le c = (c lsl 1) lor 1
  let[@inline] lt c = c lsl 1
  let zero_le = le 0
  let value b = b asr 1
  let is_strict b = b = max_int || b land 1 = 0
  let is_infinity b = b = max_int

  let[@inline] add b1 b2 =
    if b1 = max_int || b2 = max_int then max_int
    else b1 + b2 - ((b1 lor b2) land 1)

  let min (b1 : t) (b2 : t) = if b1 < b2 then b1 else b2
  let compare (b1 : t) (b2 : t) = Stdlib.compare b1 b2
  let lt_bound (b1 : t) (b2 : t) = b1 < b2

  let[@inline] negate_weak b =
    assert (b <> max_int);
    if b land 1 = 1 then lt (-(value b)) else le (-(value b))

  let sat d b =
    if b = max_int then true
    else if b land 1 = 1 then d <= value b
    else d < value b

  let pp ppf b =
    if b = max_int then Format.pp_print_string ppf "<inf"
    else if b land 1 = 1 then Format.fprintf ppf "<=%d" (value b)
    else Format.fprintf ppf "<%d" (value b)
end

type t = { n : int; m : int array }
(* [m] is a flat [n * n] array of encoded {!Bound.t}; entry [i*n + j]
   bounds [x_i - x_j].  Kept canonical: m.(i*n+j) <= m.(i*n+k) + m.(k*n+j)
   for all i j k, unless the zone is empty, which is flagged by a
   negative diagonal entry at (0, 0).  The kernels below index [m]
   directly and combine entries with the inlined [Bound] arithmetic. *)

let dim z = z.n

let zero n =
  let n = n + 1 in
  { n; m = Array.make (n * n) Bound.zero_le }

let universal n =
  let n = n + 1 in
  let m = Array.make (n * n) Bound.infinity in
  for j = 0 to n - 1 do
    m.(j) <- Bound.zero_le;
    (* row 0: -x_j <= 0 *)
    m.((j * n) + j) <- Bound.zero_le
  done;
  { n; m }

let copy z = { z with m = Array.copy z.m }
let is_empty z = z.m.(0) < Bound.zero_le
let get z i j : Bound.t = z.m.((i * z.n) + j)
let mark_empty z = z.m.(0) <- Bound.lt 0

(* Full Floyd-Warshall closure; O(n^3).  Used after extrapolation and
   intersection; single-constraint updates use the O(n^2) incremental
   variant in [constrain]. *)
let close z =
  let n = z.n and m = z.m in
  try
    for k = 0 to n - 1 do
      let kn = k * n in
      for i = 0 to n - 1 do
        let row = i * n in
        let ik = m.(row + k) in
        if ik <> Bound.infinity then
          for j = 0 to n - 1 do
            let v = Bound.add ik m.(kn + j) in
            if v < m.(row + j) then m.(row + j) <- v
          done
      done;
      for i = 0 to n - 1 do
        if m.((i * n) + i) < Bound.zero_le then raise Exit
      done
    done
  with Exit -> mark_empty z

let up z =
  if not (is_empty z) then begin
    let n = z.n and m = z.m in
    for i = 1 to n - 1 do
      m.(i * n) <- Bound.infinity
    done
  end

let constrain z i j b =
  if not (is_empty z) then begin
    let n = z.n and m = z.m in
    if b < m.((i * n) + j) then
      if Bound.add b m.((j * n) + i) < Bound.zero_le then mark_empty z
      else begin
        m.((i * n) + j) <- b;
        let jn = j * n in
        (* tighten every pair through the new edge (i, j) *)
        for p = 0 to n - 1 do
          let pi = m.((p * n) + i) in
          if pi <> Bound.infinity then begin
            let via = Bound.add pi b and row = p * n in
            for q = 0 to n - 1 do
              let cand = Bound.add via m.(jn + q) in
              if cand < m.(row + q) then m.(row + q) <- cand
            done
          end
        done
      end
  end

let reset z i v =
  assert (v >= 0);
  if not (is_empty z) then begin
    let n = z.n and m = z.m in
    let bv = Bound.le v and bnv = Bound.le (-v) and row = i * n in
    for j = 0 to n - 1 do
      if j <> i then begin
        m.(row + j) <- Bound.add bv m.(j);
        m.((j * n) + i) <- Bound.add m.(j * n) bnv
      end
    done;
    m.(row + i) <- Bound.zero_le
  end

let free z i =
  if not (is_empty z) then begin
    let n = z.n and m = z.m in
    let row = i * n in
    for j = 0 to n - 1 do
      if j <> i then begin
        m.(row + j) <- Bound.infinity;
        m.((j * n) + i) <- m.(j * n)
      end
    done;
    m.(row) <- Bound.infinity;
    m.(i) <- Bound.zero_le
  end

let intersect z z' =
  assert (z.n = z'.n);
  if is_empty z' then mark_empty z
  else if not (is_empty z) then begin
    let m = z.m and m' = z'.m in
    let changed = ref false in
    for k = 0 to Array.length m - 1 do
      let b' = m'.(k) in
      if b' < m.(k) then begin
        m.(k) <- b';
        changed := true
      end
    done;
    if !changed then close z
  end

let subset z z' =
  assert (z.n = z'.n);
  is_empty z
  || ((not (is_empty z'))
     &&
     let ok = ref true in
     let k = ref 0 in
     let len = Array.length z.m in
     while !ok && !k < len do
       if z.m.(!k) > z'.m.(!k) then ok := false;
       incr k
     done;
     !ok)

let equal z z' =
  z.n = z'.n
  &&
  if is_empty z then is_empty z'
  else (not (is_empty z')) && z.m = z'.m

let hash z = if is_empty z then 0 else Hashtbl.hash z.m

let extrapolate z k =
  assert (Array.length k = z.n && k.(0) = 0);
  if not (is_empty z) then begin
    let n = z.n and m = z.m in
    let changed = ref false in
    for i = 0 to n - 1 do
      let row = i * n and ki = Bound.le k.(i) in
      for j = 0 to n - 1 do
        if i <> j then begin
          let b = m.(row + j) in
          if b <> Bound.infinity then
            if ki < b then begin
              m.(row + j) <- Bound.infinity;
              changed := true
            end
            else
              let kj = Bound.lt (-k.(j)) in
              if b < kj then begin
                m.(row + j) <- kj;
                changed := true
              end
        end
      done
    done;
    if !changed then close z
  end

(* Extra+LU (Behrmann et al., "Lower and upper bounds in zone-based
   abstractions of timed automata"): like [extrapolate] but with
   separate lower (L) and upper (U) maximal constants, plus the
   diagonal-aware refinement that consults the zone's position — the
   original row 0 — before deciding: once the zone lies entirely above
   L(x_i), no lower-bound guard on [x_i] can tell members apart, so
   every bound involving [x_i] as minuend is dead; likewise a zone
   entirely above U(x_j) satisfies no upper-bound guard on [x_j].
   Sound for diagonal-free automata only (which {!Guard.t} enforces by
   construction).  The first pass writes rows 1..n-1 only and the
   second reads each row-0 entry before rewriting it, so every test
   sees the original row 0 without a copy. *)
let extrapolate_lu z l u =
  assert (Array.length l = z.n && Array.length u = z.n);
  assert (l.(0) = 0 && u.(0) = 0);
  if not (is_empty z) then begin
    let n = z.n and m = z.m in
    let changed = ref false in
    for i = 1 to n - 1 do
      let row = i * n and li = Bound.le l.(i) in
      let above_l = m.(i) < Bound.lt (-l.(i)) in
      for j = 0 to n - 1 do
        if i <> j then begin
          let b = m.(row + j) in
          if
            b <> Bound.infinity
            && (li < b || above_l || (j > 0 && m.(j) < Bound.lt (-u.(j))))
          then begin
            m.(row + j) <- Bound.infinity;
            changed := true
          end
        end
      done
    done;
    for j = 1 to n - 1 do
      (* lower bounds of x_j relax to (< -U(x_j)) once the zone sits
         strictly above U(x_j) *)
      let uj = Bound.lt (-u.(j)) in
      if m.(j) < uj then begin
        m.(j) <- uj;
        changed := true
      end
    done;
    if !changed then close z
  end

(* [le_lu l u z z'] decides Z ⊆ a◁LU(Z') — the simulation-based
   subsumption of Behrmann et al. / Herbreteau et al., where
   a◁LU(W) = { v | ∃ w ∈ W, ∀x. (v x > w x ⟹ w x > L x)
                             ∧ (v x < w x ⟹ v x > U x) }.

   For v ∈ Z the witness set { w | w ◁LU-simulates v } is a per-clock
   box: lower edge (0,x) = (≤,-v x) if v x ≤ L x else (<, -L x); upper
   edge (y,0) = (≤, v y) if v y ≤ U y else absent.  Z ⊄ a◁LU(Z') iff
   some v ∈ Z makes Z' ∩ box(v) empty, i.e. creates a negative cycle
   lower_x + Z'_{xy} + upper_y (pairs with x or y = 0 cover the
   one-new-edge cycles, since L 0 = U 0 = 0 makes the reference-clock
   edges (≤,0)).  Quantifier elimination over v x, v y collapses this,
   for each pair (x,y) with Z'_{xy} = (c',≺') finite, to feasibility of
   proj_{x,y}(Z) ∩ { v y ≤ min (U y) (L x - c') } ∩ { v y - v x ≺'⁻ -c' }
   — a 3-node constraint graph whose only cycles through the two new
   edges (both leave node y, so no simple cycle uses both) are four
   sums.  Z is canonical, so Z_{xy} <= Z_{x0} + Z_{0y} and
   Z_{0y} <= Z_{0x} + Z_{xy}: the sums nb' + Z_{x0} + Z_{0y} and
   T + Z_{0x} + Z_{xy} are at least those of (1) and (2) below, which
   therefore decide alone.  [lu_violation] is that test for one pair; a
   top-level function, so [le_lu] allocates no closure. *)
let lu_violation l u n m m' x y =
  let zp = m'.((x * n) + y) in
  zp <> Bound.infinity
  &&
  let nb' = Bound.negate_weak zp and zxy = m.((x * n) + y) in
  (* (1) Z must genuinely exceed Z' at (x, y) *)
  Bound.add nb' zxy >= Bound.zero_le
  &&
  let uy = u.(y) and lc = l.(x) - Bound.value zp in
  (* (2) some v y ≤ T is reachable within Z *)
  Bound.add (Bound.le (if uy < lc then uy else lc)) m.(y) >= Bound.zero_le

(* The violation search is existential, so its order is free: the
   pairs through the reference clock go first, because on the case
   study they alone reject nearly every non-simulated pair. *)
let le_lu l u z z' =
  assert (z.n = z'.n);
  assert (Array.length l = z.n && Array.length u = z.n);
  assert (l.(0) = 0 && u.(0) = 0);
  is_empty z
  || ((not (is_empty z'))
     &&
     let n = z.n and m = z.m and m' = z'.m in
     try
       for x = 1 to n - 1 do
         if lu_violation l u n m m' x 0 || lu_violation l u n m m' 0 x then
           raise_notrace Exit
       done;
       for x = 1 to n - 1 do
         for y = 1 to n - 1 do
           if x <> y && lu_violation l u n m m' x y then raise_notrace Exit
         done
       done;
       true
     with Exit -> false)

let sup z i = get z i 0
let inf z i = get z 0 i

(* Total order on canonical zones of equal dimension: dimension first,
   then lexicographic on the encoded entries.  The encoding is
   monotone, so the order is stable across processes — certificate
   emission sorts with it to get byte-identical artifacts regardless of
   shard/domain schedule. *)
let compare z z' =
  let c = Stdlib.compare z.n z'.n in
  if c <> 0 then c
  else if is_empty z then if is_empty z' then 0 else -1
  else if is_empty z' then 1
  else Stdlib.compare z.m z'.m

let to_encoded z = (z.n, Array.copy z.m)

let of_encoded n m =
  if n < 1 || Array.length m <> n * n then
    invalid_arg "Dbm.of_encoded: dimension mismatch";
  (* never trust the producer's canonicity: re-close so that the
     pointwise operations (subset, le_lu, sup) are sound on the
     result *)
  let z = { n; m = Array.copy m } in
  close z;
  z

let satisfies z v =
  assert (Array.length v = z.n && v.(0) = 0);
  (not (is_empty z))
  &&
  let ok = ref true in
  for i = 0 to z.n - 1 do
    for j = 0 to z.n - 1 do
      if not (Bound.sat (v.(i) - v.(j)) (get z i j)) then ok := false
    done
  done;
  !ok

let delay_ordered z v d =
  let v' = Array.mapi (fun i x -> if i = 0 then 0 else x + d) v in
  if satisfies z v' then Some v' else None

let pp ppf z =
  if is_empty z then Format.pp_print_string ppf "false"
  else begin
    let first = ref true in
    let sep () =
      if !first then first := false else Format.fprintf ppf " && "
    in
    for i = 0 to z.n - 1 do
      for j = 0 to z.n - 1 do
        if i <> j then begin
          let b = get z i j in
          let trivial =
            Bound.is_infinity b || (j = i) || (i = 0 && b = Bound.zero_le)
          in
          if not trivial then begin
            sep ();
            if j = 0 then Format.fprintf ppf "x%d%a" i Bound.pp b
            else if i = 0 then Format.fprintf ppf "-x%d%a" j Bound.pp b
            else Format.fprintf ppf "x%d-x%d%a" i j Bound.pp b
          end
        end
      done
    done;
    if !first then Format.pp_print_string ppf "true"
  end
