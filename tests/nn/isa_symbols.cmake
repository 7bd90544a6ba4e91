# Fails unless every object in OBJECTS (the per-ISA builds of
# src/nn/fast_rows.cpp) defines exactly one external symbol, its
# nnk::detail::fast_rows_* getter, and no weak, vague-linkage or unique
# symbol. A weak std:: or inline-header function compiled for x86-64-v4
# could be the copy the linker keeps for every object of the program, and
# would fault on a CPU without AVX-512.
#
#   cmake -DNM=<nm> -DOBJECTS=<a.o;b.o> -P isa_symbols.cmake
foreach(object IN LISTS OBJECTS)
  execute_process(COMMAND "${NM}" --defined-only "${object}"
                  OUTPUT_VARIABLE symbols RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${object}")
  endif()
  string(REGEX MATCHALL "[^\n]+" lines "${symbols}")
  set(external "")
  foreach(line IN LISTS lines)
    # "<value> <type> <name>": upper-case types are global, v/w weak and u
    # unique; lower-case t, d, b, r, n are local to the object.
    if(line MATCHES "^[0-9a-fA-F]* *([A-Zuvw]) (.+)$")
      list(APPEND external "${CMAKE_MATCH_1} ${CMAKE_MATCH_2}")
    endif()
  endforeach()
  list(LENGTH external count)
  if(NOT count EQUAL 1 OR NOT external MATCHES "^T _ZN5nptsn3nnk6detail[0-9]+fast_rows_")
    message(FATAL_ERROR "${object} must define only its fast_rows getter, defines: ${external}")
  endif()
  message(STATUS "${object}: ${external}")
endforeach()
