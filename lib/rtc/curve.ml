type t = { eval_fn : int -> int; corners_fn : horizon:int -> int list }

let eval c d = c.eval_fn (max 0 d)
let corners c ~horizon = c.corners_fn ~horizon

let constant k =
  { eval_fn = (fun _ -> k); corners_fn = (fun ~horizon:_ -> []) }

let zero = constant 0

let upper_pjd ~period ~jitter ~dmin =
  (* closed-window convention: alpha(0) is the instantaneous burst, so
     horizontal deviations see the arriving job's full demand (the
     half-open convention would silently serve one time unit before the
     burst lands) *)
  let eval_fn d =
    let periodic = ((d + jitter) / period) + 1 in
    let by_sep = if dmin > 0 then (d / dmin) + 1 else max_int in
    min periodic by_sep
  in
  let corners_fn ~horizon =
    let rec steps k acc =
      let p = (k * period) - jitter in
      if p > horizon then acc
      else steps (k + 1) (if p >= 0 then p :: acc else acc)
    in
    let sep_steps =
      if dmin > 0 then
        let rec go k acc =
          let p = k * dmin in
          if p > horizon then acc else go (k + 1) (p :: acc)
        in
        go 1 []
      else []
    in
    steps 0 [] @ sep_steps
  in
  { eval_fn; corners_fn }

let scale c k = { c with eval_fn = (fun d -> k * c.eval_fn d) }

(* A sum's corners are its operands' corners. *)
let add c1 c2 =
  {
    eval_fn = (fun d -> c1.eval_fn d + c2.eval_fn d);
    corners_fn =
      (fun ~horizon -> c1.corners_fn ~horizon @ c2.corners_fn ~horizon);
  }
