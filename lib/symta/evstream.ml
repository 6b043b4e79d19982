type t = { period : int; jitter : int; dmin : int }

let of_eventmodel em =
  let period, jitter, dmin = Ita_core.Eventmodel.pjd em in
  { period; jitter; dmin }

let ceil_div a b = if a <= 0 then 0 else ((a - 1) / b) + 1

(* Arrivals in a half-open window [t, t + delta): the Tindell
   interference term. *)
let eta_plus s delta =
  if delta <= 0 then 0
  else
    let periodic = ceil_div (delta + s.jitter) s.period in
    let by_sep = if s.dmin > 0 then ((delta - 1) / s.dmin) + 1 else max_int in
    min periodic by_sep

let delta_min s q =
  assert (q >= 1);
  let by_period = max 0 (((q - 1) * s.period) - s.jitter) in
  let by_sep = (q - 1) * s.dmin in
  max by_period by_sep
