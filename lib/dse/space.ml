open Ita_core

type choice = { label : string; transform : Sysmodel.t -> Sysmodel.t }
type axis = { axis_name : string; choices : choice list }

let axis name choices =
  if choices = [] then invalid_arg ("Space.axis " ^ name ^ ": no choices");
  let labels = List.map fst choices in
  if List.length (List.sort_uniq compare labels) <> List.length labels then
    invalid_arg ("Space.axis " ^ name ^ ": duplicate choice labels");
  {
    axis_name = name;
    choices = List.map (fun (label, transform) -> { label; transform }) choices;
  }

let mips_axis ~resource levels =
  axis resource
    (List.map
       (fun mips ->
         ( Printf.sprintf "%s=%gMIPS" resource mips,
           fun m ->
             Sysmodel.with_resource m resource (fun r ->
                 Resource.processor r.Resource.name ~mips
                   ~policy:r.Resource.policy) ))
       levels)

let kbps_axis ~resource levels =
  axis resource
    (List.map
       (fun kbps ->
         ( Printf.sprintf "%s=%gkbps" resource kbps,
           fun m ->
             Sysmodel.with_resource m resource (fun r ->
                 Resource.link r.Resource.name ~kbps ~policy:r.Resource.policy)
         ))
       levels)

let mapping_axis ~scenario ~step targets =
  axis
    (Printf.sprintf "%s.%d" scenario step)
    (List.map
       (fun resource ->
         ( Printf.sprintf "%s.%d@%s" scenario step resource,
           fun m -> Sysmodel.remap_step m ~scenario ~step ~resource ))
       targets)

let queue_bound_axis bounds =
  axis "queue-bound"
    (List.map
       (fun b ->
         ( Printf.sprintf "qbound=%d" b,
           fun m -> { m with Sysmodel.queue_bound = b } ))
       bounds)

type t = { space_name : string; base : Sysmodel.t; axes : axis list }

let make ~name ~base ~axes =
  let names = List.map (fun a -> a.axis_name) axes in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg ("Space.make " ^ name ^ ": duplicate axis names");
  { space_name = name; base; axes }

let size t = List.fold_left (fun n a -> n * List.length a.choices) 1 t.axes

type candidate = {
  index : int;
  picks : (string * string) list;
  sys : Sysmodel.t;
}

let candidates t =
  let rec expand axes picks sys =
    match axes with
    | [] -> [ (List.rev picks, sys) ]
    | a :: rest ->
        List.concat_map
          (fun c ->
            expand rest ((a.axis_name, c.label) :: picks) (c.transform sys))
          a.choices
  in
  List.mapi
    (fun index (picks, sys) -> { index; picks; sys })
    (expand t.axes [] t.base)

let label c =
  match c.picks with
  | [] -> "(base)"
  | picks -> String.concat " " (List.map snd picks)

let cost c =
  List.fold_left
    (fun acc (r : Resource.t) ->
      acc
      +.
      match r.Resource.kind with
      | Resource.Processor { mips } -> mips
      | Resource.Link { kbps } -> kbps /. 8.0)
    0.0 c.sys.Sysmodel.resources
