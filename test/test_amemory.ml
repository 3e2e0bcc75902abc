(** Tests for abstract memories: the wire, alias, register, and joined
    instances of Fig. 4, byte-order insulation, immediates, and float
    width conversion. *)

open Ldb_machine
module A = Ldb_amemory.Amemory

let check = Alcotest.check

let test_local_roundtrip () =
  let m = A.local () in
  A.store_i32 m (A.absolute 'd' 0x10) 123456l;
  check Alcotest.int32 "i32" 123456l (A.fetch_i32 m (A.absolute 'd' 0x10));
  A.store_u8 m (A.absolute 'd' 0x20) 0xAB;
  check Alcotest.int "u8" 0xAB (A.fetch_u8 m (A.absolute 'd' 0x20));
  A.store_f64 m (A.absolute 'd' 0x30) 6.25;
  check (Alcotest.float 0.0) "f64" 6.25 (A.fetch_f64 m (A.absolute 'd' 0x30))

let test_immediate () =
  let loc = A.immediate_i32 99l in
  let m = A.local () in
  (* immediate locations are served from their own cell in any memory *)
  check Alcotest.int32 "fetch" 99l (A.fetch_i32 m loc);
  A.store_i32 m loc 100l;
  check Alcotest.int32 "store" 100l (A.fetch_i32 m loc);
  (* sub-width fetch takes the least significant bytes *)
  check Alcotest.int "low byte" 100 (A.fetch_u8 m loc)

let test_alias_translation () =
  let under = A.local () in
  let table = Hashtbl.create 4 in
  Hashtbl.replace table ('r', 30) (A.absolute 'd' 0x92);
  let m = A.alias ~lookup:(fun s o -> Hashtbl.find_opt table (s, o)) under in
  A.store_i32 under (A.absolute 'd' 0x92) 777l;
  check Alcotest.int32 "aliased fetch" 777l (A.fetch_i32 m (A.absolute 'r' 30));
  A.store_i32 m (A.absolute 'r' 30) 888l;
  check Alcotest.int32 "aliased store" 888l (A.fetch_i32 under (A.absolute 'd' 0x92));
  (* unaliased requests pass through *)
  A.store_i32 m (A.absolute 'd' 0x10) 5l;
  check Alcotest.int32 "passthrough" 5l (A.fetch_i32 under (A.absolute 'd' 0x10))

let test_alias_immediate () =
  let table = Hashtbl.create 4 in
  Hashtbl.replace table ('x', 1) (A.immediate_i32 0x4000l);
  let m = A.alias ~lookup:(fun s o -> Hashtbl.find_opt table (s, o)) (A.local ()) in
  check Alcotest.int32 "immediate alias" 0x4000l (A.fetch_i32 m (A.absolute 'x' 1))

(** The register memory makes byte order irrelevant: fetching the least
    significant byte of a register is the same operation regardless of
    where the register was saved or how the target orders bytes. *)
let test_register_memory_byte_order () =
  let under = A.local () in
  let table = Hashtbl.create 4 in
  Hashtbl.replace table ('r', 5) (A.absolute 'd' 0x40) ;
  let aliased = A.alias ~lookup:(fun s o -> Hashtbl.find_opt table (s, o)) under in
  let m = A.register ~spaces:[ ('r', A.Int_reg 4) ] aliased in
  A.store_i32 m (A.absolute 'r' 5) 0x11223344l;
  (* a 1-byte fetch from the register returns the least significant byte *)
  check Alcotest.int "ls byte" 0x44 (A.fetch_u8 m (A.absolute 'r' 5));
  check Alcotest.int "ls halfword" 0x3344 (A.fetch_u16 m (A.absolute 'r' 5));
  (* a 1-byte store is widened to a full-register read-modify-write *)
  A.store_u8 m (A.absolute 'r' 5) 0x99;
  check Alcotest.int32 "rmw store" 0x11223399l (A.fetch_i32 m (A.absolute 'r' 5))

let test_register_float_conversion () =
  (* the SIM-68020 saves 80-bit extended registers; fetching a double from
     one converts transparently *)
  let under = A.local () in
  let table = Hashtbl.create 4 in
  Hashtbl.replace table ('f', 2) (A.absolute 'd' 0x50);
  let aliased = A.alias ~lookup:(fun s o -> Hashtbl.find_opt table (s, o)) under in
  let m = A.register ~spaces:[ ('f', A.Float_reg 10) ] aliased in
  A.store_f80 m (A.absolute 'f' 2) 3.25;
  check (Alcotest.float 0.0) "f80 roundtrip" 3.25 (A.fetch_f80 m (A.absolute 'f' 2));
  check (Alcotest.float 0.0) "f64 from f80 register" 3.25 (A.fetch_f64 m (A.absolute 'f' 2));
  A.store_f64 m (A.absolute 'f' 2) 1.75;
  check (Alcotest.float 0.0) "f64 store converts" 1.75 (A.fetch_f80 m (A.absolute 'f' 2))

let test_joined_routing () =
  let log = ref [] in
  let regs = A.traced ~log:(fun s -> log := s :: !log) (A.local ()) in
  let data = A.traced ~log:(fun s -> log := s :: !log) (A.local ()) in
  let m = A.joined ~routes:[ ('r', regs); ('f', regs) ] ~default:data in
  ignore (A.fetch_i32 m (A.absolute 'r' 3));
  ignore (A.fetch_i32 m (A.absolute 'd' 0x100));
  let entries = List.rev !log in
  Alcotest.(check int) "two requests" 2 (List.length entries);
  Alcotest.(check bool) "register request routed to regs" true
    (String.length (List.nth entries 0) > 0 && String.sub (List.nth entries 0) 0 5 = "fetch");
  (* the second request must have gone to the default (data) memory *)
  Alcotest.(check bool) "data request routed to default" true
    (let s = List.nth entries 1 in
     String.length s > 6 && String.contains s 'd')

(** Full Fig. 4 DAG against a live simulated process via the nub, over
    the transport every session uses. *)
let test_wire_dag_end_to_end () =
  List.iter
    (fun arch ->
      let target = Target.of_arch arch in
      let proc = Proc.create target in
      Cpu.set_reg proc.Proc.cpu 7 0xCAFE01l;
      Cpu.set_freg proc.Proc.cpu 1 2.5;
      Ram.set_u32 proc.Proc.ram 0x2000 4242l;
      let nub = Ldb_nub.Nub.create proc in
      proc.Proc.status <- Proc.Stopped (SIGTRAP, 0);
      Ldb_nub.Nub.save_context nub;
      let dbg, nubend = Ldb_nub.Chan.pair () in
      Ldb_nub.Nub.attach nub nubend;
      Ldb_nub.Chan.set_pump dbg (fun () -> Ldb_nub.Nub.pump nub);
      let wire = A.rpc_wire (Ldb_ldb.Transport.rpc (Ldb_ldb.Transport.make dbg)) in
      let ctx = Ldb_nub.Nub.ctx_base in
      let table = Hashtbl.create 64 in
      for r = 0 to Target.nregs target - 1 do
        Hashtbl.replace table ('r', r) (A.absolute 'd' (ctx + target.Target.ctx_reg_off r))
      done;
      for f = 0 to Target.nfregs target - 1 do
        Hashtbl.replace table ('f', f) (A.absolute 'd' (ctx + target.Target.ctx_freg_off f))
      done;
      let aliased = A.alias ~lookup:(fun s o -> Hashtbl.find_opt table (s, o)) wire in
      let regmem =
        A.register
          ~spaces:[ ('r', A.Int_reg 4); ('f', A.Float_reg target.Target.ctx_freg_bytes) ]
          aliased
      in
      let joined = A.joined ~routes:[ ('r', regmem); ('f', regmem) ] ~default:wire in
      let an = Arch.name arch in
      check Alcotest.int32 (an ^ " register via DAG") 0xCAFE01l
        (A.fetch_i32 joined (A.absolute 'r' 7));
      check Alcotest.int (an ^ " register ls byte") 0x01
        (A.fetch_u8 joined (A.absolute 'r' 7));
      check (Alcotest.float 0.0) (an ^ " float register") 2.5
        (A.fetch_f64 joined (A.absolute 'f' 1));
      check Alcotest.int32 (an ^ " data direct") 4242l
        (A.fetch_i32 joined (A.absolute 'd' 0x2000)))
    Arch.all

let test_wire_error () =
  let proc = Proc.create (Target.of_arch Mips) in
  let nub = Ldb_nub.Nub.create proc in
  let dbg, nubend = Ldb_nub.Chan.pair () in
  Ldb_nub.Nub.attach nub nubend;
  Ldb_nub.Chan.set_pump dbg (fun () -> Ldb_nub.Nub.pump nub);
  let wire = A.rpc_wire (Ldb_ldb.Transport.rpc (Ldb_ldb.Transport.make dbg)) in
  (match A.fetch_i32 wire (A.absolute 'z' 0) with
  | exception A.Error _ -> ()
  | _ -> Alcotest.fail "bad space accepted");
  match A.fetch_i32 wire (A.absolute 'd' 0x7fffffff) with
  | exception A.Error _ -> ()
  | _ -> Alcotest.fail "bad address accepted"

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "amemory"
    [
      ( "basic",
        [ case "local" test_local_roundtrip; case "immediate" test_immediate ] );
      ( "alias",
        [ case "translation" test_alias_translation; case "immediate alias" test_alias_immediate ] );
      ( "register",
        [ case "byte-order insulation" test_register_memory_byte_order;
          case "float width conversion" test_register_float_conversion ] );
      ( "joined", [ case "routing" test_joined_routing ] );
      ( "wire",
        [ case "full DAG end-to-end" test_wire_dag_end_to_end;
          case "errors" test_wire_error ] );
    ]
