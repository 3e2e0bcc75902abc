(** Dump the frames of a seeded deep stop on every target, for the
    frame-walk golden ([frames.expected]).

    Four units recurse through one another, each with a register-class
    local, so a stop deep in the recursion has caller frames whose
    registers live in their callees' save slots.  Per target the dump
    shows every frame three times, always through the same walked
    frames: at the stop; after an assignment to a register local two
    frames down; and after stores to the immediate pc, frame-base and sp
    cells of the frame one down.  A fresh walk at the end shows that
    those immediate stores stayed in the walked frame. *)

open Ldb_machine
module A = Ldb_amemory.Amemory
module Ldb = Ldb_ldb.Ldb
module Frame = Ldb_ldb.Frame

let units = 4

let sources = Testkit.deep_sources ~units ~top:15 ~rounds:2

let hex32 mem loc =
  match A.fetch_i32 mem loc with
  | v -> Printf.sprintf "%08lx" v
  | exception e -> "!" ^ Printexc.to_string e

let hexbytes mem loc ~size =
  match A.fetch mem loc ~size with
  | s -> String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))
  | exception e -> "!" ^ Printexc.to_string e

let dump (s : Testkit.session) title (frames : Frame.t list) =
  let target = s.Testkit.tg.Ldb.tg_tdesc in
  Printf.printf "-- %s\n" title;
  List.iter
    (fun (fr : Frame.t) ->
      let mem = fr.Frame.fr_mem in
      let line =
        match Ldb.stop_of_frame s.Testkit.d s.Testkit.tg fr with
        | Some st -> string_of_int st.Ldb_ldb.Symtab.stop_line
        | None -> "-"
      in
      Printf.printf "%d %s pc=%08x base=%08x sp=%08x line=%s\n" fr.Frame.fr_level
        (Ldb.frame_function s.Testkit.d s.Testkit.tg fr)
        fr.Frame.fr_pc fr.Frame.fr_base fr.Frame.fr_sp line;
      let regs space n f = String.concat " " (List.init n (fun i -> f (A.absolute space i))) in
      Printf.printf "  r %s\n" (regs 'r' (Target.nregs target) (hex32 mem));
      Printf.printf "  f %s\n"
        (regs 'f' (Target.nfregs target) (hexbytes mem ~size:target.Target.ctx_freg_bytes));
      Printf.printf "  x %s\n" (regs 'x' 2 (hex32 mem)))
    frames

let run arch seed =
  let s = Testkit.debug_session ~arch sources in
  let d = s.Testkit.d and tg = s.Testkit.tg in
  let rng = Random.State.make [| seed |] in
  let k = Random.State.int rng units in
  let stops = 3 + Random.State.int rng 2 in
  ignore (Ldb.break_function d tg (Printf.sprintf "d%d" k));
  ignore (Testkit.continue_n s stops);
  Printf.printf "== %s seed %d: d%d, stop %d: %s\n" (Arch.name arch) seed k stops
    (Ldb.where d tg);
  let frames = Ldb.backtrace d tg in
  dump s "at the stop" frames;
  let fr2 = List.nth frames 2 in
  Testkit.ok_unit (Ldb.assign_int d tg fr2 "r" 4242);
  dump s "after r = 4242 in frame 2" frames;
  let fr1 = List.nth frames 1 in
  let target = tg.Ldb.tg_tdesc in
  A.store_i32 fr1.Frame.fr_mem (A.absolute 'x' 0) 0x1234l;
  A.store_i32 fr1.Frame.fr_mem (A.absolute 'x' 1) 0x5678l;
  A.store_i32 fr1.Frame.fr_mem (A.absolute 'r' target.Target.sp) 0x9abcl;
  dump s "after frame 1's pc, base and sp cells are stored" frames;
  dump s "a fresh walk" (Ldb.backtrace d tg)

let () = List.iteri (fun i arch -> run arch (11 + i)) Arch.all
