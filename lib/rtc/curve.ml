type t = {
  eval_fn : int -> int;
  bp_fn : horizon:int -> int list;
  cache : (int, int) Hashtbl.t;
}
(* Derived curves (leftover, sums, ...) evaluate their
   operands at many repeated abscissae; the per-curve cache turns the
   nested compositions built by the GPC layer from exponential into
   linear work. *)

let eval c d =
  let d = max 0 d in
  match Hashtbl.find_opt c.cache d with
  | Some v -> v
  | None ->
      let v = c.eval_fn d in
      Hashtbl.add c.cache d v;
      v

let raw eval_fn bp_fn = { eval_fn; bp_fn; cache = Hashtbl.create 256 }

let dedup_sorted l =
  let rec go = function
    | a :: b :: rest -> if a = b then go (b :: rest) else a :: go (b :: rest)
    | l -> l
  in
  go l

(* Each raw breakpoint also contributes its predecessor and successor,
   so that one-sided limits of staircases are sampled. *)
let widen ~horizon pts =
  List.concat_map (fun p -> [ p - 1; p; p + 1 ]) pts
  |> List.filter (fun p -> p >= 0 && p <= horizon)
  |> List.cons 0
  |> List.cons horizon
  |> List.sort_uniq compare

let breakpoints c ~horizon = widen ~horizon (c.bp_fn ~horizon)

let make ~eval ~breakpoints = raw (fun d -> eval (max 0 d)) breakpoints
let zero = raw (fun _ -> 0) (fun ~horizon:_ -> [])
let constant k = raw (fun _ -> k) (fun ~horizon:_ -> [])
let rate r = raw (fun d -> r * d) (fun ~horizon:_ -> [])

let upper_pjd ~period ~jitter ~dmin =
  (* closed-window convention: alpha(0) is the instantaneous burst, so
     horizontal deviations see the arriving job's full demand (the
     half-open convention would silently serve one time unit before the
     burst lands) *)
  let eval_fn d =
    if d < 0 then 0
    else
      let periodic = ((d + jitter) / period) + 1 in
      let by_sep = if dmin > 0 then (d / dmin) + 1 else max_int in
      min periodic by_sep
  in
  let bp_fn ~horizon =
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
  raw eval_fn bp_fn

let scale c k = raw (fun d -> k * eval c d) c.bp_fn

let merge_bps c1 c2 ~horizon =
  List.merge compare
    (List.sort compare (c1.bp_fn ~horizon))
    (List.sort compare (c2.bp_fn ~horizon))
  |> dedup_sorted

let add c1 c2 =
  raw
    (fun d -> eval c1 d + eval c2 d)
    (fun ~horizon -> merge_bps c1 c2 ~horizon)
