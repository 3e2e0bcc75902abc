(** Record/replay time travel: reverse continue, reverse step, and
    "who last wrote this variable?".

    The simulated targets are deterministic, so a log of the debugger's
    own state-changing requests plus periodic checkpoints (an LDBCORE1
    core dump with a replay cursor) is a complete, replayable history.
    The reverse commands restore the nearest checkpoint into a fresh nub
    and re-execute forward; the replayed nub attaches as an ordinary
    target, so backtraces, printing, and disassembly work unchanged at
    any point in the past.

    Run with: dune exec examples/time_travel.exe *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Replay = Ldb_ldb.Replay

let ok = function Ok v -> v | Error (`Dead_process m) -> failwith m

let back = function
  | Ok tg -> tg
  | Error e -> failwith ("reverse motion: " ^ Replay.error_to_string e)

let counter_c =
  {|
int total;
void bump(int k)
{
    total = total + k;
}
int main(void)
{
    int i;
    for (i = 1; i <= 4; i++)
        bump(i);
    printf("%d\n", total);
    return 0;
}
|}

let () =
  let d = Ldb.create () in
  let proc, tg = Host.spawn d ~arch:Arch.Mips ~name:"travel" [ ("counter.c", counter_c) ] in

  Printf.printf "== record, then run into the loop\n";
  Ldb.start_record tg ~spacing:32;
  ignore (Ldb.break_function d tg "bump" : int);
  for _ = 1 to 3 do
    ignore (ok (Ldb.continue_ d tg) : Ldb.state)
  done;
  let show who t =
    let fr = Ldb.top_frame d t in
    Printf.printf "   %-9s %s   total = %s\n" who (Ldb.where d t)
      (Ldb.print_value d t fr "total")
  in
  show "live:" tg;

  Printf.printf "\n== reverse continue walks back through the same stops\n";
  let image = Ldb.load_image d ~loader_ps:proc.Host.hp_loader_ps in
  let rp =
    match Replay.of_string d ~name:"travel" ~image (Ldb.trace_bytes tg) with
    | Ok (rp, []) -> rp
    | Ok (_, _ :: _) -> failwith "trace came back damaged"
    | Error e -> failwith (Replay.error_to_string e)
  in
  ignore (back (Replay.seek_end rp) : Ldb.target);
  let t = back (Replay.rcontinue rp) in
  Printf.printf "   [%s]\n" (Replay.describe rp);
  show "replayed:" t;
  let t = back (Replay.rcontinue rp) in
  Printf.printf "   [%s]\n" (Replay.describe rp);
  show "replayed:" t;

  Printf.printf "\n== who last wrote total?  run back to the write itself\n";
  let t = back (Replay.seek_end rp) in
  let _, addr, size =
    match Ldb.variable_range d t (Ldb.top_frame d t) "total" with
    | Ok r -> r
    | Error m -> failwith m
  in
  let t =
    match Replay.run_back_to_write rp ~addr ~size with
    | Ok (t, _) -> t
    | Error e -> failwith (Replay.error_to_string e)
  in
  Printf.printf "   [%s]\n" (Replay.describe rp);
  show "at write:" t;
  let t = back (Replay.rstep rp) in
  show "1 before:" t;

  Printf.printf "\n== the present is untouched; finish the live run\n";
  (match ok (Ldb.continue_ d tg) with
  | Ldb.Stopped _ -> show "live:" tg
  | _ -> Printf.printf "   unexpected state\n");
  match ok (Ldb.continue_ d tg) with
  | Ldb.Exited n -> Printf.printf "   program exited with status %d\n" n
  | _ -> Printf.printf "   unexpected state\n"
