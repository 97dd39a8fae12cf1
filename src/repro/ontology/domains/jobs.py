"""The job-finder domain ontology — the paper's running example.

Encodes every semantic relationship the paper uses:

* attribute synonyms: ``school``/``college`` → ``university``;
  ``work_experience`` ↔ ``professional_experience`` is deliberately
  **not** a synonym pair here — the paper's event carries
  ``(work experience, true)`` (a flag) while subscriptions constrain
  ``professional_experience ≥ 4`` (a number); the bridge is the
  mapping function below, exactly as §3.1 develops it;
* a concept hierarchy over degrees, positions, skills and universities
  ("more general terms are higher up");
* the mapping function ``professional_experience =
  present_date − graduation_year`` and the mainframe-developer /
  COBOL-programming correlation from the paper's introduction.
"""

from __future__ import annotations

from repro.model.predicates import Predicate
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingContext, MappingRule
from repro.model.events import Event
from repro.model.values import Period

__all__ = ["DOMAIN", "build_jobs_knowledge_base", "install_jobs_domain"]

DOMAIN = "jobs"

#: Degree ladder, most specific first.
_DEGREE_CHAINS = (
    ("PhD", "doctorate", "graduate degree", "degree"),
    ("DSc", "doctorate"),
    ("MSc", "master's degree", "graduate degree"),
    ("MASc", "master's degree"),
    ("MBA", "master's degree"),
    ("MEng", "master's degree"),
    ("BSc", "bachelor's degree", "undergraduate degree", "degree"),
    ("BA", "bachelor's degree"),
    ("BEng", "bachelor's degree"),
    ("college diploma", "undergraduate degree"),
)

#: Position ladder — the "mainframe developer" branch is the paper's.
_POSITION_CHAINS = (
    ("mainframe developer", "software developer", "developer", "engineer", "employee"),
    ("java developer", "software developer"),
    ("senior java developer", "java developer"),
    ("junior java developer", "java developer"),
    ("web developer", "software developer"),
    ("database developer", "software developer"),
    ("embedded developer", "software developer"),
    ("database administrator", "administrator", "employee"),
    ("system administrator", "administrator"),
    ("qa engineer", "engineer"),
    ("project manager", "manager", "employee"),
    ("engineering manager", "manager"),
    ("recruiter", "employee"),
)

#: Skill ladder.
_SKILL_CHAINS = (
    ("COBOL programming", "mainframe development", "software development", "engineering skill"),
    ("JCL scripting", "mainframe development"),
    ("Java programming", "object-oriented programming", "software development"),
    ("C++ programming", "object-oriented programming"),
    ("Python programming", "object-oriented programming"),
    ("SQL", "database skills", "software development"),
    ("query optimization", "database skills"),
    ("HTML", "web development", "software development"),
    ("JavaScript", "web development"),
    ("assembly programming", "systems programming", "software development"),
    ("C programming", "systems programming"),
)

#: University geography: a subscription on
#: ``university = "Canadian university"`` matches a resume naming
#: "Toronto" (rule R1: specialized event vs. generalized subscription).
_UNIVERSITY_CHAINS = (
    ("Toronto", "Ontario university", "Canadian university", "university"),
    ("Waterloo", "Ontario university"),
    ("Queens", "Ontario university"),
    ("McGill", "Quebec university", "Canadian university"),
    ("UBC", "BC university", "Canadian university"),
    ("MIT", "US university", "university"),
    ("Stanford", "US university"),
    ("Berkeley", "US university"),
    ("Oxford", "UK university", "university"),
    ("Cambridge", "UK university"),
)

_ATTRIBUTE_SYNONYMS = (
    (("university", "school", "college", "alma_mater"), "university"),
    (("degree", "qualification", "diploma"), "degree"),
    (("position", "job_title", "title", "role"), "position"),
    (("skill", "expertise", "competency"), "skill"),
    (("salary", "compensation", "pay", "remuneration"), "salary"),
    (("city", "town", "location"), "city"),
    (("name", "full_name", "candidate_name"), "name"),
)

_VALUE_SYNONYMS = (
    (("PhD", "doctor of philosophy", "Ph.D."), "PhD"),
    (("MSc", "master of science", "M.Sc."), "MSc"),
    (("BSc", "bachelor of science", "B.Sc."), "BSc"),
    (("Toronto", "University of Toronto", "UofT"), "Toronto"),
    (("java developer", "java programmer"), "java developer"),
    (("COBOL programming", "COBOL"), "COBOL programming"),
)


def _total_employment(event: Event, context: MappingContext):
    """Sum the durations of all ``period``/``periodN`` attributes — the
    resume in paper §3.1 lists one period per job held, with no upper
    bound on the job count (the read set is declared to the interest
    index as the open ``period*`` prefix family)."""
    total = 0
    seen = False
    for attribute, value in event.items():
        if attribute == "period" or (attribute.startswith("period") and attribute[6:].isdigit()):
            if isinstance(value, Period):
                seen = True
                total += value.duration(context.present_year)
    if not seen:
        return None
    return (("employment_years", total),)


def _mapping_rules() -> tuple[MappingRule, ...]:
    return (
        # The paper's §3.1 mapping function, verbatim.
        MappingRule.computed(
            "professional-experience-from-graduation",
            "professional_experience",
            "present_year - graduation_year",
            domain=DOMAIN,
            description="professional experience = present date - graduation year",
        ),
        # The paper's §1 example: a "mainframe developer" query should
        # surface resumes that mention COBOL programming in 1960-1980.
        MappingRule.equivalence(
            "cobol-implies-mainframe-developer",
            {"skill": "COBOL programming"},
            {"position": "mainframe developer"},
            domain=DOMAIN,
            description="COBOL programming experience marks a mainframe developer",
        ),
        MappingRule.equivalence(
            "mainframe-position-implies-cobol-skill",
            {"position": "mainframe developer"},
            {"skill": "COBOL programming", "era": Period(1960, 1980)},
            domain=DOMAIN,
            description="mainframe developers are presumed COBOL-era programmers",
        ),
        MappingRule.function(
            "total-employment-from-periods",
            ["period1"],
            _total_employment,
            domain=DOMAIN,
            description="employment_years = sum of job period durations",
            reads=("period", "period*"),
        ),
        MappingRule.computed(
            "graduation-age",
            "years_since_graduation",
            "years_since(graduation_year)",
            domain=DOMAIN,
        ),
        # Salary banding: expert-written categorical abstraction.
        MappingRule.equivalence(
            "salary-band-junior",
            [Predicate.lt("salary", 60000)],
            {"salary_band": "junior band"},
            domain=DOMAIN,
        ),
        MappingRule.equivalence(
            "salary-band-intermediate",
            [Predicate.between("salary", 60000, 100000)],
            {"salary_band": "intermediate band"},
            domain=DOMAIN,
        ),
        MappingRule.equivalence(
            "salary-band-senior",
            [Predicate.gt("salary", 100000)],
            {"salary_band": "senior band"},
            domain=DOMAIN,
        ),
    )


def install_jobs_domain(kb: KnowledgeBase) -> KnowledgeBase:
    """Install the job-finder ontology into an existing knowledge base."""
    taxonomy = kb.add_domain(DOMAIN)
    for chains in (_DEGREE_CHAINS, _POSITION_CHAINS, _SKILL_CHAINS, _UNIVERSITY_CHAINS):
        for chain in chains:
            taxonomy.add_chain(*chain)
    for terms, root in _ATTRIBUTE_SYNONYMS:
        kb.add_attribute_synonyms(terms, root=root)
    for terms, root in _VALUE_SYNONYMS:
        kb.add_value_synonyms(terms, root=root)
    kb.add_rules(_mapping_rules())
    return kb


def build_jobs_knowledge_base() -> KnowledgeBase:
    """A fresh knowledge base holding only the job-finder domain."""
    return install_jobs_domain(KnowledgeBase("jobs-kb"))

