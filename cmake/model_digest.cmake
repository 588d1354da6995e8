# Writes OUT, a C++ source that defines nurapid::modelDigest(): the
# first 16 hex digits of a SHA-256 over every .cc and .hh file under
# SRC, each fed as its path relative to SRC and the SHA-256 of its
# contents, in sorted path order. The same tree at another path gives
# the same digest; any edit, rename, addition or removal changes it.
#
#   cmake -DSRC=<src dir> -DOUT=<file.cc> -P cmake/model_digest.cmake
if(NOT SRC OR NOT OUT)
    message(FATAL_ERROR "usage: cmake -DSRC=<dir> -DOUT=<file> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(GLOB_RECURSE files RELATIVE ${SRC} ${SRC}/*.cc ${SRC}/*.hh)
list(SORT files)
set(manifest "")
foreach(f IN LISTS files)
    file(SHA256 ${SRC}/${f} hash)
    string(APPEND manifest "${f} ${hash}\n")
endforeach()
string(SHA256 digest "${manifest}")
string(SUBSTRING ${digest} 0 16 digest)

file(WRITE ${OUT}
"// Generated from the model sources by cmake/model_digest.cmake.
#include \"common/fingerprint.hh\"

const char *
nurapid::modelDigest()
{
    return \"${digest}\";
}
")
