(* Host-speed probe. On a shared host the speed of memory-touching code
   drifts by tens of percent within minutes, while the work stays the
   same. The probe is fixed work of the same kind as a simulation (small
   records allocated and promoted, hash-table lookups, a binary heap of
   float keys), written here and sharing no code with the library, so no
   change to the library moves it. Timings are reported in reference-host
   seconds: a measured time multiplied by [reference_s] over the probe's
   time around it. The probe is timed in CPU time, which leaves out steal
   (see Layer.steal_s); the times it scales are CPU times or wall times
   net of steal. *)

(* The probe's CPU time on the reference host (2 vCPU Intel Xeon at
   2.0 GHz, quiet). Only a scale: it does not affect any comparison. *)
let reference_s = 0.15

type item = { key : int; weight : float; mutable next : item option }

let work () =
  let seed = ref 12345 in
  let rand () =
    seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
    !seed
  in
  let table : (int, item) Hashtbl.t = Hashtbl.create 16 in
  let heap = Array.make 65536 0. and size = ref 0 in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  for i = 1 to 300_000 do
    let key = rand () land 0x1ffff in
    (match Hashtbl.find_opt table key with
    | Some x -> x.next <- Some { key = i; weight = x.weight +. 1.; next = None }
    | None -> Hashtbl.replace table key { key; weight = float_of_int i; next = None });
    if !size < Array.length heap then (
      let j = ref !size in
      heap.(!j) <- float_of_int (rand ());
      incr size;
      while !j > 0 && heap.((!j - 1) / 2) > heap.(!j) do
        swap !j ((!j - 1) / 2);
        j := (!j - 1) / 2
      done);
    if i land 3 = 0 then (
      decr size;
      heap.(0) <- heap.(!size);
      let j = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !j) + 1 in
        let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if l < !size && heap.(c) < heap.(!j) then (
          swap c !j;
          j := c)
        else sifting := false
      done)
  done;
  Hashtbl.length table

(* CPU time per domain of the probe, run once on each of [domains]
   domains at the same time (a workload that keeps two cores busy is
   slowed by a neighbour on either). Starts from a compacted heap, so what
   ran before does not change the probe's GC work. *)
let time ~domains =
  Gc.compact ();
  let c0 = Rfd.Clock.cpu () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  ignore (Sys.opaque_identity (work ()));
  List.iter (fun d -> ignore (Domain.join d)) others;
  (Rfd.Clock.cpu () -. c0) /. float_of_int domains
