type band = High | Low

type step =
  | Compute of { op : string; resource : string; instructions : float }
  | Transfer of { msg : string; resource : string; bytes : int }

type requirement = {
  req_name : string;
  from_step : int option;
  to_step : int;
  budget_us : int option;
}

type t = {
  name : string;
  trigger : Eventmodel.t;
  band : band;
  steps : step list;
  requirements : requirement list;
}

let make ~name ~trigger ~band ~steps ~requirements =
  { name; trigger; band; steps; requirements }

let step_name = function
  | Compute { op; _ } -> op
  | Transfer { msg; _ } -> msg

let step_resource = function
  | Compute { resource; _ } -> resource
  | Transfer { resource; _ } -> resource

let n_steps s = List.length s.steps

let requirement s name =
  List.find (fun r -> r.req_name = name) s.requirements

let in_window ~from_step ~to_step k =
  let lo = match from_step with None -> 0 | Some f -> f + 1 in
  lo <= k && k <= to_step

let validate ~resources s =
  let ( let* ) r f = Result.bind r f in
  let* () = Eventmodel.validate s.trigger in
  let* () =
    if s.steps = [] then Error (s.name ^ ": no steps") else Ok ()
  in
  let find_resource name =
    List.find_opt (fun (r : Resource.t) -> r.Resource.name = name) resources
  in
  let check_step st =
    match (st, find_resource (step_resource st)) with
    | _, None ->
        Error
          (Printf.sprintf "%s: step %s uses unknown resource %s" s.name
             (step_name st) (step_resource st))
    | Compute _, Some r
      when (match r.Resource.policy with
           | Resource.Priority_segmented _ -> true
           | Resource.Nondet_nonpreemptive | Resource.Priority_nonpreemptive
           | Resource.Priority_preemptive | Resource.Tdma _ ->
               false) ->
        Error
          (Printf.sprintf "%s: computation %s on a segmented (link) policy"
             s.name (step_name st))
    | Compute _, Some r when Resource.is_link r ->
        Error
          (Printf.sprintf "%s: computation %s mapped to a link" s.name
             (step_name st))
    | Transfer _, Some r when not (Resource.is_link r) ->
        Error
          (Printf.sprintf "%s: transfer %s mapped to a processor" s.name
             (step_name st))
    | _, Some _ -> Ok ()
  in
  let* () =
    List.fold_left
      (fun acc st -> Result.bind acc (fun () -> check_step st))
      (Ok ()) s.steps
  in
  let n = n_steps s in
  let check_req r =
    if r.to_step < 0 || r.to_step >= n then
      Error (Printf.sprintf "%s/%s: to_step out of range" s.name r.req_name)
    else
      match r.from_step with
      | None -> Ok ()
      | Some f ->
          if f < 0 || f >= r.to_step then
            Error
              (Printf.sprintf "%s/%s: from_step must precede to_step" s.name
                 r.req_name)
          else Ok ()
  in
  List.fold_left
    (fun acc r -> Result.bind acc (fun () -> check_req r))
    (Ok ()) s.requirements

let pp ppf s =
  Format.fprintf ppf "@[<v2>%s (%a, %s):@," s.name Eventmodel.pp s.trigger
    (match s.band with High -> "high" | Low -> "low");
  List.iteri
    (fun i st ->
      match st with
      | Compute { op; resource; instructions } ->
          Format.fprintf ppf "%d. %s @@ %s (%.0f instr)@," i op resource
            instructions
      | Transfer { msg; resource; bytes } ->
          Format.fprintf ppf "%d. %s over %s (%d bytes)@," i msg resource bytes)
    s.steps;
  Format.fprintf ppf "@]"
