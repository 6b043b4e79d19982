type t = {
  name : string;
  resources : Resource.t list;
  scenarios : Scenario.t list;
  queue_bound : int;
}

let validate m =
  if m.queue_bound < 1 then Error "queue_bound must be at least 1"
  else if m.scenarios = [] then Error "no scenarios"
  else
    List.fold_left
      (fun acc s ->
        Result.bind acc (fun () ->
            Scenario.validate ~resources:m.resources s))
      (Ok ()) m.scenarios

let make ~name ~resources ~scenarios ?(queue_bound = 4) () =
  let m = { name; resources; scenarios; queue_bound } in
  match validate m with
  | Ok () -> m
  | Error msg -> invalid_arg ("Sysmodel.make: " ^ msg)

let scenario m name = List.find (fun (s : Scenario.t) -> s.Scenario.name = name) m.scenarios
let resource m name = List.find (fun (r : Resource.t) -> r.Resource.name = name) m.resources

let step_duration_us m st =
  let r = resource m (Scenario.step_resource st) in
  match (st, r.Resource.kind) with
  | Scenario.Compute { instructions; _ }, Resource.Processor { mips } ->
      Units.us_of_instructions ~instructions ~mips
  | Scenario.Transfer { bytes; _ }, Resource.Link { kbps } ->
      Units.us_of_bytes ~bytes ~kbps
  | Scenario.Compute _, Resource.Link _ | Scenario.Transfer _, Resource.Processor _
    ->
      (* excluded by validation *)
      assert false

let uncontended_us m s ~from_step ~to_step =
  List.filteri
    (fun i _ -> Scenario.in_window ~from_step ~to_step i)
    s.Scenario.steps
  |> List.fold_left (fun acc st -> acc + step_duration_us m st) 0

let jobs_on m r =
  List.concat_map
    (fun (s : Scenario.t) ->
      List.mapi (fun i st -> (i, st)) s.Scenario.steps
      |> List.filter_map (fun (i, st) ->
             if Scenario.step_resource st = r.Resource.name then
               Some (s, i, st)
             else None))
    m.scenarios

let with_trigger m scen ev =
  {
    m with
    scenarios =
      List.map
        (fun (s : Scenario.t) ->
          if s.Scenario.name = scen then { s with Scenario.trigger = ev } else s)
        m.scenarios;
  }

let revalidated m =
  match validate m with
  | Ok () -> m
  | Error msg -> invalid_arg ("Sysmodel transform: " ^ msg)

let with_resource m name f =
  let found = ref false in
  let resources =
    List.map
      (fun (r : Resource.t) ->
        if r.Resource.name = name then (
          found := true;
          f r)
        else r)
      m.resources
  in
  if not !found then raise Not_found;
  revalidated { m with resources }

let remap_step m ~scenario:scen ~step ~resource =
  let s = scenario m scen in
  if step < 0 || step >= List.length s.Scenario.steps then
    invalid_arg
      (Printf.sprintf "Sysmodel.remap_step: %s has no step %d" scen step);
  let steps =
    List.mapi
      (fun i (st : Scenario.step) ->
        if i <> step then st
        else
          match st with
          | Scenario.Compute c -> Scenario.Compute { c with resource }
          | Scenario.Transfer t -> Scenario.Transfer { t with resource })
      s.Scenario.steps
  in
  let scenarios =
    List.map
      (fun (s' : Scenario.t) ->
        if s'.Scenario.name = scen then { s' with Scenario.steps } else s')
      m.scenarios
  in
  revalidated { m with scenarios }

let pp ppf m =
  Format.fprintf ppf "@[<v2>system %s:@," m.name;
  List.iter (fun r -> Format.fprintf ppf "%a@," Resource.pp r) m.resources;
  List.iter (fun s -> Format.fprintf ppf "%a@," Scenario.pp s) m.scenarios;
  Format.fprintf ppf "@]"
