# Golden check for one `scg_cli paper NAME` artifact.  Runs the command,
# requires exit status 0, and compares its stdout line by line with the
# fenced block EXPERIMENTS.md holds between `<!-- scg_cli paper NAME -->` and
# `<!-- /scg_cli paper NAME -->`.  Trailing blanks are stripped from every
# line on both sides; nothing else is normalised.  On a mismatch the fresh
# output is printed, so re-pinning the doc is a paste.
#
#   cmake -DCLI=<scg_cli> -DNAME=<artifact> -DDOC=<EXPERIMENTS.md> \
#         -P paper_golden.cmake
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND "${CLI}" paper "${NAME}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE fresh ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "0")
  message(FATAL_ERROR "scg_cli paper ${NAME} exited with '${rc}':\n${err}")
endif()

file(READ "${DOC}" doc)
set(begin "<!-- scg_cli paper ${NAME} -->\n```text\n")
set(end "```\n<!-- /scg_cli paper ${NAME} -->")
string(FIND "${doc}" "${begin}" at)
string(FIND "${doc}" "${end}" stop)
if(at EQUAL -1 OR stop LESS at)
  message(FATAL_ERROR "${DOC} has no fenced text block between "
                      "'<!-- scg_cli paper ${NAME} -->' and its end marker")
endif()
string(LENGTH "${begin}" len)
math(EXPR at "${at} + ${len}")
math(EXPR len "${stop} - ${at}")
string(SUBSTRING "${doc}" ${at} ${len} golden)

# pop_line(text line): moves the first line of ${text}, trailing blanks
# stripped, into ${line}; an exhausted text yields "<end of text>".
macro(pop_line text line)
  string(FIND "${${text}}" "\n" nl)
  if("${${text}}" STREQUAL "")
    set(${line} "<end of text>")
  elseif(nl EQUAL -1)
    set(${line} "${${text}}")
    set(${text} "")
  else()
    string(SUBSTRING "${${text}}" 0 ${nl} ${line})
    math(EXPR nl "${nl} + 1")
    string(SUBSTRING "${${text}}" ${nl} -1 ${text})
  endif()
  string(REGEX REPLACE "[ \t]+$" "" ${line} "${${line}}")
endmacro()

set(got "${fresh}")
set(lineno 0)
while(NOT "${got}${golden}" STREQUAL "")
  math(EXPR lineno "${lineno} + 1")
  pop_line(got got_line)
  pop_line(golden want_line)
  if(NOT "${got_line}" STREQUAL "${want_line}")
    message(NOTICE "${fresh}")
    message(FATAL_ERROR "scg_cli paper ${NAME} differs from ${DOC} at block "
                        "line ${lineno}:\n  doc:   '${want_line}'\n"
                        "  fresh: '${got_line}'\n"
                        "The fresh output is printed above.")
  endif()
endwhile()
