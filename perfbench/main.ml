(* Benchmark entry point: runs one workload at one seed and prints a report,
   then one JSON result line. Built and launched by run.py; see README.md. *)

open Workload

let workloads = [ "paper_sweep"; "internet_5k"; "prefix_heavy"; "serve_mix" ]

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 20. and trace = ref 0 in
  let simd = ref "" and scratch = ref "" and expect_digest = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed (default 42, where outputs are pinned)");
      ("--seconds", Arg.Set_float seconds, "S measurement window (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--simd", Arg.Set_string simd, "PATH rfd-simd binary (serve_mix)");
      ("--scratch", Arg.Set_string scratch, "DIR scratch directory (serve_mix)");
      ( "--expect-digest",
        Arg.String (fun d -> expect_digest := Some d),
        "HEX check the unit digest against HEX instead of the seed-42 pin" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  if not (List.mem !workload workloads) then (
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2);
  if !trace <> 0 && !trace <> 1 then (
    prerr_endline "--trace must be 0 or 1";
    exit 2);
  let traced = !trace = 1 in
  let expect_digest = !expect_digest and seed = !seed in
  let outcome =
    match !workload with
    | "serve_mix" -> Serve.run ~seed ~seconds:!seconds ~traced ~simd:!simd ~scratch:!scratch ~expect_digest
    | name ->
        if traced then Sims.traced ~name ~seed ~expect_digest
        else Sims.measure ~name ~seed ~seconds:!seconds ~expect_digest
  in
  (* run.py checks the names and units against BENCHMARK.json, the one
     list of metrics, and fills in 0 for a layer this workload does not
     run. *)
  let metrics = outcome.metrics in
  let outcome =
    match List.filter (fun x -> not (Float.is_finite x.value)) metrics with
    | [] -> outcome
    | bad ->
        let msgs = List.map (fun x -> x.name ^ " is not a finite number") bad in
        { outcome with problems = outcome.problems @ msgs }
  in
  let metrics = List.map (fun x -> if Float.is_finite x.value then x else { x with value = 0. }) metrics in
  Printf.printf "workload=%s seed=%d seconds=%g trace=%d\n" !workload seed !seconds !trace;
  List.iter print_endline outcome.notes;
  List.iter (fun x -> Printf.printf "metric %-30s %16.6f %s\n" x.name x.value x.unit) metrics;
  List.iter (fun p -> print_endline ("FAILED CHECK: " ^ p)) outcome.problems;
  (* A failed check is a failed operation, even when no single run or
     query can be blamed. *)
  let failed = if outcome.problems = [] then outcome.failed else max 1 outcome.failed in
  let correct = failed = 0 in
  let open Rfd.Json in
  print_string
    (to_string ~minify:true
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int outcome.attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun x -> (x.name, Obj [ ("value", Float x.value); ("unit", String x.unit) ]))
                   metrics) );
          ]));
  print_newline ();
  exit (if correct then 0 else 1)
