type t = { eval_fn : int -> int; bp_fn : horizon:int -> int list }

(* An [eval] walks the composition once: each [Minplus.leftover] level
   materialised its corner prefix maxima when it was built, so it
   evaluates its operands once per call (see curve.mli). *)
let eval c d = c.eval_fn (max 0 d)

let breakpoints c ~horizon = c.bp_fn ~horizon

let make ~eval ~breakpoints = { eval_fn = eval; bp_fn = breakpoints }
let zero = make ~eval:(fun _ -> 0) ~breakpoints:(fun ~horizon:_ -> [])
let constant k = make ~eval:(fun _ -> k) ~breakpoints:(fun ~horizon:_ -> [])
let rate r = make ~eval:(fun d -> r * d) ~breakpoints:(fun ~horizon:_ -> [])

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
  make ~eval:eval_fn ~breakpoints:bp_fn

let scale c k = make ~eval:(fun d -> k * eval c d) ~breakpoints:c.bp_fn

(* A sum's corners are its operands' corners. *)
let add c1 c2 =
  make
    ~eval:(fun d -> eval c1 d + eval c2 d)
    ~breakpoints:(fun ~horizon -> c1.bp_fn ~horizon @ c2.bp_fn ~horizon)
