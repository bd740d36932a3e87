(* What a workload hands back to main.ml. *)

type metric = { name : string; value : float; unit : string }

type outcome = {
  attempted : int;  (** operations: simulation runs or queries *)
  failed : int;  (** operations that failed or failed a check *)
  problems : string list;  (** one line per failed check *)
  metrics : metric list;  (** end-to-end, or per-layer when traced *)
  notes : string list;  (** extra report lines, printed before the result *)
}

let m name value unit = { name; value; unit }
let count name n = m name (float_of_int n) "count"

(* Run [unit_fn] repeatedly for about [seconds]: another unit starts only
   while the window still has room for one more of the last unit's
   length, and at least one always runs. A host-speed probe on [domains]
   domains runs before the first unit and after every unit (the probes
   count against the window). Each unit comes back with its result and
   the scale that turns its times into reference-host seconds:
   Host_speed.reference_s over the mean of the two probes either side of
   it. *)
let repeat ~domains ~seconds unit_fn =
  let t0 = Layer.now () in
  let rec go before acc =
    let r, wall = Layer.timed unit_fn in
    let after = Host_speed.time ~domains in
    let acc = (r, 2. *. Host_speed.reference_s /. (before +. after)) :: acc in
    if Layer.now () -. t0 +. wall <= seconds then go after acc else List.rev acc
  in
  go (Host_speed.time ~domains) []

(* Median over units of a time times its unit's scale. *)
let scaled_median f units = Layer.median (List.map (fun (r, scale) -> f r *. scale) units)

let md5_hex s = Digest.to_hex (Digest.string s)
