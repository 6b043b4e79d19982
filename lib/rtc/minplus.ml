(* The one place corners are widened: each raw corner of either
   operand with its predecessor and successor, so that one-sided limits
   of staircases are sampled, plus 0 and the horizon; sorted, in
   [[0, horizon]]. *)
let candidates ~horizon c1 c2 =
  Curve.breakpoints c1 ~horizon @ Curve.breakpoints c2 ~horizon
  |> List.concat_map (fun p -> [ p - 1; p; p + 1 ])
  |> List.filter (fun p -> p >= 0 && p <= horizon)
  |> List.cons 0
  |> List.cons horizon
  |> List.sort_uniq compare

let horizontal_deviation ~horizon ~demand ~service =
  let cands = candidates ~horizon demand service in
  (* inf {tau | service (x + tau) >= d} by binary search on monotone
     service *)
  let catch_up x d =
    if Curve.eval service (x + horizon) < d then None
    else begin
      let lo = ref 0 and hi = ref horizon in
      while !hi - !lo > 0 do
        let mid = !lo + ((!hi - !lo) / 2) in
        if Curve.eval service (x + mid) >= d then hi := mid else lo := mid + 1
      done;
      Some !hi
    end
  in
  let worst = ref 0 in
  let overflow = ref false in
  List.iter
    (fun x ->
      match catch_up x (Curve.eval demand x) with
      | Some tau -> if tau > !worst then worst := tau
      | None -> overflow := true)
    cands;
  if !overflow then max_int else !worst

(* sup_{0 <= l <= d} (service l - demand l), clamped at 0.  Both curves
   are piecewise linear between their corners, so the sup over [0, d]
   is attained at a corner or at d itself; a prefix-max over the sorted
   corners makes evaluation logarithmic. *)
let leftover ~horizon ~service ~demand =
  let cands = Array.of_list (candidates ~horizon service demand) in
  let prefix = Array.make (Array.length cands) 0 in
  let best = ref min_int in
  Array.iteri
    (fun i x ->
      let v = Curve.eval service x - Curve.eval demand x in
      if v > !best then best := v;
      prefix.(i) <- !best)
    cands;
  let eval d =
    (* largest candidate index <= d *)
    let lo = ref 0 and hi = ref (Array.length cands - 1) in
    let at_corner =
      if Array.length cands = 0 || cands.(0) > d then min_int
      else begin
        while !hi - !lo > 0 do
          let mid = !lo + ((!hi - !lo + 1) / 2) in
          if cands.(mid) <= d then lo := mid else hi := mid - 1
        done;
        prefix.(!lo)
      end
    in
    let at_d = Curve.eval service d - Curve.eval demand d in
    max 0 (max at_corner at_d)
  in
  (* its operands' raw corners: where [service] catches up with a past
     maximum is a corner too, but no operator samples it, since a delay
     or leftover over a monotone service peaks at corners of the demand *)
  Curve.make ~eval ~breakpoints:(fun ~horizon:h ->
      Curve.breakpoints service ~horizon:h @ Curve.breakpoints demand ~horizon:h)
