type service = int -> int

(* Each corner of the demand with its predecessor, plus 0 and the
   horizon; sorted, in [[0, horizon]]. *)
let candidates ~horizon demand =
  Curve.corners demand ~horizon
  |> List.concat_map (fun p -> [ p - 1; p ])
  |> List.filter (fun p -> p >= 0)
  |> List.cons 0
  |> List.cons horizon
  |> List.sort_uniq compare

let horizontal_deviation ~horizon ~demand ~service =
  (* inf {tau | service (x + tau) >= d} by binary search on monotone
     service *)
  let catch_up x d =
    if service (x + horizon) < d then None
    else begin
      let lo = ref 0 and hi = ref horizon in
      while !hi - !lo > 0 do
        let mid = !lo + ((!hi - !lo) / 2) in
        if service (x + mid) >= d then hi := mid else lo := mid + 1
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
    (candidates ~horizon demand);
  if !overflow then max_int else !worst

(* sup_{0 <= l <= d} (service l - demand l), clamped at 0: a prefix max
   over the sorted candidates makes evaluation logarithmic. *)
let leftover ~horizon ~service ~demand =
  let cands = Array.of_list (candidates ~horizon demand) in
  let prefix = Array.make (Array.length cands) 0 in
  let best = ref min_int in
  Array.iteri
    (fun i x ->
      best := max !best (service x - Curve.eval demand x);
      prefix.(i) <- !best)
    cands;
  fun d ->
    (* largest candidate index <= d; cands.(0) = 0 <= d *)
    let lo = ref 0 and hi = ref (Array.length cands - 1) in
    while !hi - !lo > 0 do
      let mid = !lo + ((!hi - !lo + 1) / 2) in
      if cands.(mid) <= d then lo := mid else hi := mid - 1
    done;
    max 0 (max prefix.(!lo) (service d - Curve.eval demand d))
